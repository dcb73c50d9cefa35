package main

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Workload shapes. They are part of the benchmark's definition: changing
// any of them changes what every recorded number means.
const (
	// adviseQueries is the size of every advise_design workload. A CoPhy
	// solve grows faster than linearly with the workload: at 48 queries a
	// run completed about two cycles a second, and its few slowest cycles
	// decided its tail latency and throughput; at 24 it completes about
	// eight.
	adviseQueries = 24
	// whatifQueries is the size of the fixed what-if workload.
	whatifQueries = 48
	// readvisesPerCycle follows each cold advise in an advise_design cycle.
	readvisesPerCycle = 3
	// verifiedCycles is the advise_design prefix whose answers are checked
	// against an in-process designer.Advise.
	verifiedCycles = 5
	// qualityCycles is the advise_design prefix, verified cycles included,
	// whose answers are averaged into the quality metric. Every run
	// completes at least this many cycles, so the quality metric is a pure
	// function of the seed; averaged over the verified cycles alone it
	// moved by 12% between seeds.
	qualityCycles = 50
	// whatifClients run one what-if session each, concurrently.
	whatifClients = 2
	// epochLength is the tuner epoch; the online stream is sent in batches
	// of exactly one epoch.
	epochLength = 25
	// driftQueries and updateQueries make one online_tuning pass: a
	// drifting stream, then an update-heavy one.
	driftQueries  = 600
	updateQueries = 400
	// explainsPerIndex follow each hypothetical index a what-if client
	// adds: the plans of a few queries are inspected before moving on.
	explainsPerIndex = 3
)

// adviseProfiles rotate over advise_design cycles; the cycle's workload
// seed is fresh, so each cycle's queries are new to the INUM cache.
var adviseProfiles = []string{"uniform", "zipf", "template_heavy", "drifting", "update_heavy"}

// adviseShares are the storage budgets of a cycle's readvises, as shares of
// the pages of the cycle's cold answer, which has no budget. Budgets
// relative to what the workload wants keep every cycle's branch-and-bound
// comparably tight, whatever the generated queries need.
var adviseShares = []float64{0.75, 0.5, 0.25}

// adviseNodeBudget caps CoPhy's branch-and-bound nodes per request, the
// paper's execution-time/quality knob. Most budgeted requests prove
// optimality in 10-150 nodes at size small, but a few need more than a
// thousand (over ten seconds each); uncapped, one such request decides a
// whole run's throughput.
const adviseNodeBudget = 150

// indexPool is what the what-if clients add and drop: access paths the
// SDSS templates filter, join or sort on.
var indexPool = []struct {
	table   string
	columns []string
}{
	{"photoobj", []string{"type", "psfmag_r"}},
	{"photoobj", []string{"ra", "dec"}},
	{"photoobj", []string{"dec"}},
	{"photoobj", []string{"psfmag_r"}},
	{"photoobj", []string{"fieldid"}},
	{"photoobj", []string{"run", "camcol"}},
	{"specobj", []string{"bestobjid"}},
	{"specobj", []string{"z"}},
	{"specobj", []string{"class", "z"}},
	{"neighbors", []string{"distance"}},
	{"neighbors", []string{"objid"}},
	{"field", []string{"quality"}},
}

// adviseRequest is one design question of an advise_design cycle.
type adviseRequest struct {
	// share of the cold answer's pages the budget allows (0 = unlimited);
	// budget is the resolved page budget.
	share      float64
	budget     int64
	partitions bool
}

// resolve sets the page budget from the pages of the cycle's cold answer.
func (rq adviseRequest) resolve(pages int64) adviseRequest {
	if rq.share > 0 {
		rq.budget = max(1, int64(rq.share*float64(pages)))
	}
	return rq
}

// adviseCycle is one advise_design session: a fresh workload, a cold
// advise and readvisesPerCycle re-advises with other budgets.
type adviseCycle struct {
	profile  string
	sql      []string
	requests []adviseRequest
}

// inputs derives every workload input from the seed; only the SQL text and
// JSON built from it reach the server.
type inputs struct {
	seed int64
	// whatif is the fixed what-if workload.
	whatif []string
}

func newInputs(seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	var err error
	if in.whatif, err = generate("uniform", seed*7919+1, whatifQueries); err != nil {
		return nil, err
	}
	return in, nil
}

// cycle returns the k-th advise_design cycle: a cold advise without a
// budget, then readvises at each share of its pages, in an order that
// rotates with k. Partitions are on for every third request counted over
// the whole run; interactions are always on.
func (in *inputs) cycle(k int) (adviseCycle, error) {
	profile := adviseProfiles[k%len(adviseProfiles)]
	sql, err := generate(profile, in.seed*1_000_003+int64(k), adviseQueries)
	if err != nil {
		return adviseCycle{}, err
	}
	c := adviseCycle{profile: profile, sql: sql}
	n := 1 + readvisesPerCycle
	for i := 0; i < n; i++ {
		rq := adviseRequest{partitions: (k*n+i)%3 == 0}
		if i > 0 {
			// 2k rather than k: with k the order would rotate in step with
			// the partition flag, and the tightest budget would always come
			// with partitions.
			rq.share = adviseShares[(2*k+i-1)%len(adviseShares)]
		}
		c.requests = append(c.requests, rq)
	}
	return c, nil
}

// whatifStep is one operation of a what-if session.
type whatifStep struct {
	op string // add, evaluate, explain, drop
	// ix indexes indexPool (add, drop); query indexes in.whatif (explain).
	ix, query int
	// expect names the evaluate whose answer this evaluate must reproduce
	// bit for bit ("" = none): "base" after the last drop, "one" after the
	// second index is dropped again.
	expect string
	// record names the answer an evaluate stores for later comparison.
	record string
}

// whatifCycle is the j-th cycle of what-if client c: add X, inspect a few
// plans, add Y, inspect, drop Y, drop X, evaluating the workload after
// every edit. A session starts and ends every cycle at the base design, so
// the closing evaluate must reproduce the base costs exactly. The first
// cycle of every client uses fixed indexes every generated workload
// benefits from, so the quality metric averaged over first cycles is never
// zero.
func (in *inputs) whatifCycle(c, j int) []whatifStep {
	rng := rand.New(rand.NewSource(in.seed*31 + int64(c)*1009 + int64(j)))
	x := rng.Intn(len(indexPool))
	y := (x + 1 + rng.Intn(len(indexPool)-1)) % len(indexPool)
	if j == 0 {
		x, y = c%len(indexPool), (c+whatifClients)%len(indexPool)
	}
	steps := []whatifStep{{op: "evaluate", record: "base"}, {op: "add", ix: x}, {op: "evaluate", record: "one"}}
	for e := 0; e < explainsPerIndex; e++ {
		steps = append(steps, whatifStep{op: "explain", query: rng.Intn(len(in.whatif))})
	}
	steps = append(steps, whatifStep{op: "add", ix: y}, whatifStep{op: "evaluate", record: "two"})
	for e := 0; e < explainsPerIndex; e++ {
		steps = append(steps, whatifStep{op: "explain", query: rng.Intn(len(in.whatif))})
	}
	return append(steps,
		whatifStep{op: "drop", ix: y},
		whatifStep{op: "evaluate", expect: "one"},
		whatifStep{op: "drop", ix: x},
		whatifStep{op: "evaluate", expect: "base"},
	)
}

// onlinePass returns the p-th online_tuning pass in epoch-sized batches: a
// drifting stream, then an update-heavy one. Every pass streams new
// queries to a new tuner, so a run averages over several streams.
func (in *inputs) onlinePass(p int) ([][]string, error) {
	base := in.seed*7919 + int64(p)*104729
	drift, err := stream("drifting", base+2, driftQueries)
	if err != nil {
		return nil, err
	}
	update, err := stream("update_heavy", base+3, updateQueries)
	if err != nil {
		return nil, err
	}
	all := append(drift, update...)
	var out [][]string
	for i := 0; i < len(all); i += epochLength {
		out = append(out, all[i:min(i+epochLength, len(all))])
	}
	return out, nil
}

func generate(profile string, seed int64, n int) ([]string, error) {
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	w, err := p.Generate(workload.Schema(), seed, n)
	if err != nil {
		return nil, fmt.Errorf("generate %s workload: %w", profile, err)
	}
	sql := make([]string, len(w.Queries))
	for i, q := range w.Queries {
		sql[i] = q.SQL
	}
	return sql, nil
}

func stream(profile string, seed int64, n int) ([]string, error) {
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	qs, err := p.GenerateStream(workload.Schema(), seed, n)
	if err != nil {
		return nil, fmt.Errorf("generate %s stream: %w", profile, err)
	}
	sql := make([]string, len(qs))
	for i, q := range qs {
		sql[i] = q.SQL
	}
	return sql, nil
}
