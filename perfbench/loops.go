package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"
)

// window bounds a closed loop: it runs at least minCycles cycles and keeps
// starting new ones until the deadline. A zero deadline runs exactly
// minCycles, which is how the traced run replays a fixed input prefix.
type window struct {
	deadline  time.Time
	minCycles int
}

func (w window) more(done int) bool {
	return done < w.minCycles || time.Now().Before(w.deadline)
}

// latencies collects per-request client latencies by request kind.
type latencies struct {
	mu sync.Mutex
	by map[string][]time.Duration
}

func newLatencies() *latencies { return &latencies{by: map[string][]time.Duration{}} }

func (l *latencies) add(kind string, d time.Duration) {
	l.mu.Lock()
	l.by[kind] = append(l.by[kind], d)
	l.mu.Unlock()
}

// of returns the samples of the given kinds pooled.
func (l *latencies) of(kinds ...string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, k := range kinds {
		out = append(out, l.by[k]...)
	}
	return out
}

// leq is a <= b up to floating-point noise in the solver's LP bound.
func leq(a, b float64) bool { return a <= b+1e-9*math.Abs(b) }

// ---------------------------------------------------------------------------
// advise_design: one client; each cycle is create session, cold advise,
// readvisesPerCycle readvises with other budgets, close.
// ---------------------------------------------------------------------------

type adviseBody struct {
	SQL          []string `json:"sql"`
	BudgetPages  int64    `json:"budget_pages,omitempty"`
	NodeBudget   int      `json:"node_budget"`
	Partitions   bool     `json:"partitions,omitempty"`
	Interactions bool     `json:"interactions"`
}

type adviseResponse struct {
	Indexes []struct {
		Key   string `json:"key"`
		Pages int64  `json:"estimated_pages"`
	} `json:"indexes"`
	Solver *struct {
		Objective float64 `json:"objective"`
		Baseline  float64 `json:"baseline_cost"`
		Bound     float64 `json:"bound"`
		Nodes     int     `json:"nodes"`
		Proven    bool    `json:"proven"`
	} `json:"solver"`
}

// designAnswer is one advise or readvise answer.
type designAnswer struct {
	cycle     int
	sql       []string
	first     bool // the cycle's cold advise
	request   adviseRequest
	keys      []string
	objective float64
	baseline  float64
	proven    bool
}

// saving is the answer's cost saving in percent of the no-index cost.
func (a designAnswer) saving() float64 { return 100 * (a.baseline - a.objective) / a.baseline }

// adviseLoop runs cycles first, first+1, ... while win allows. verify, when
// set, is called with every successful answer before the next request is
// sent, so it sees the designer in the state that produced the answer.
func adviseLoop(ctx context.Context, c *client, in *inputs, first int, win window, lat *latencies, t *tally, verify func(designAnswer) error) error {
	for k := 0; win.more(k); k++ {
		cyc, err := in.cycle(first + k)
		if err != nil {
			return err
		}
		var sess struct {
			ID string `json:"id"`
		}
		_, _, err = c.do(ctx, "POST", "/api/v1/sessions", nil, &sess)
		t.add(err)
		if err != nil {
			return nil
		}
		var pages int64 // of the cold answer
		for i, rq := range cyc.requests {
			rq = rq.resolve(pages)
			kind, path := "readvise", "/api/v1/sessions/"+sess.ID+"/readvise"
			if i == 0 {
				kind, path = "advise", "/api/v1/sessions/"+sess.ID+"/advise"
			}
			body := adviseBody{SQL: cyc.sql, BudgetPages: rq.budget, NodeBudget: adviseNodeBudget, Partitions: rq.partitions, Interactions: true}
			var resp adviseResponse
			_, took, err := c.do(ctx, "POST", path, body, &resp)
			if err == nil {
				lat.add(kind, took)
				err = checkAdvice(resp)
			}
			if err == nil && i == 0 {
				for _, ix := range resp.Indexes {
					pages += ix.Pages
				}
			}
			if err == nil && verify != nil {
				a := designAnswer{cycle: first + k, sql: cyc.sql, first: i == 0, request: rq, objective: resp.Solver.Objective, baseline: resp.Solver.Baseline, proven: resp.Solver.Proven}
				for _, ix := range resp.Indexes {
					a.keys = append(a.keys, ix.Key)
				}
				err = verify(a)
			}
			t.add(err)
		}
		_, _, err = c.do(ctx, "DELETE", "/api/v1/sessions/"+sess.ID, nil, nil)
		t.add(err)
	}
	return nil
}

// checkAdvice checks what one answer must satisfy on its own: the solver's
// lower bound <= objective <= the no-index baseline.
func checkAdvice(r adviseResponse) error {
	s := r.Solver
	switch {
	case s == nil:
		return errors.New("advise answer without solver telemetry")
	case !leq(s.Bound, s.Objective):
		return fmt.Errorf("advise: bound %v above objective %v", s.Bound, s.Objective)
	case !leq(s.Objective, s.Baseline):
		return fmt.Errorf("advise: objective %v above baseline %v", s.Objective, s.Baseline)
	case s.Baseline <= 0:
		return fmt.Errorf("advise: baseline %v not positive", s.Baseline)
	}
	return nil
}

// sameDesign compares an HTTP answer with a reference answer for the same
// input: same index keys in the same order and a bit-identical objective.
func sameDesign(what string, got designAnswer, keys []string, objective float64) error {
	if !slices.Equal(got.keys, keys) || math.Float64bits(got.objective) != math.Float64bits(objective) {
		return fmt.Errorf("%s differs for budget %d partitions %v: HTTP %v objective %v, reference %v objective %v",
			what, got.request.budget, got.request.partitions, got.keys, got.objective, keys, objective)
	}
	return nil
}

// ---------------------------------------------------------------------------
// whatif_session: whatifClients clients, one session each, over one fixed
// workload; see inputs.whatifCycle for the step sequence.
// ---------------------------------------------------------------------------

type reportResponse struct {
	BaseTotal float64 `json:"base_total"`
	NewTotal  float64 `json:"new_total"`
	Queries   []struct {
		NewCost float64 `json:"new_cost"`
	} `json:"queries"`
}

// sameReport reports whether two evaluate answers are bit-identical.
func sameReport(a, b reportResponse) bool {
	if math.Float64bits(a.BaseTotal) != math.Float64bits(b.BaseTotal) ||
		math.Float64bits(a.NewTotal) != math.Float64bits(b.NewTotal) || len(a.Queries) != len(b.Queries) {
		return false
	}
	for i := range a.Queries {
		if math.Float64bits(a.Queries[i].NewCost) != math.Float64bits(b.Queries[i].NewCost) {
			return false
		}
	}
	return true
}

// whatifRun is what the what-if clients report: the first cycle's answers
// per client, the traced run's reference and the source of the saving.
type whatifRun struct {
	mu    sync.Mutex
	first map[int][]reportResponse
}

// whatifSaving is the mean cost saving, in percent of the base cost, of the
// "one" and "two" designs each client's first cycle evaluates. It sums in
// client order, so the figure repeats bit for bit.
func whatifSaving(first map[int][]reportResponse) float64 {
	var savings []float64
	for cid := range whatifClients {
		if evals := first[cid]; len(evals) >= 3 {
			for _, r := range evals[1:3] {
				savings = append(savings, 100*(r.BaseTotal-r.NewTotal)/r.BaseTotal)
			}
		}
	}
	return mean(savings)
}

func whatifLoop(ctx context.Context, c *client, in *inputs, win window, lat *latencies, t *tally) *whatifRun {
	run := &whatifRun{first: map[int][]reportResponse{}}
	var wg sync.WaitGroup
	for cid := 0; cid < whatifClients; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			whatifClient(ctx, c, in, cid, win, lat, t, run)
		}(cid)
	}
	wg.Wait()
	return run
}

func whatifClient(ctx context.Context, c *client, in *inputs, cid int, win window, lat *latencies, t *tally, run *whatifRun) {
	var sess struct {
		ID string `json:"id"`
	}
	_, _, err := c.do(ctx, "POST", "/api/v1/sessions", nil, &sess)
	t.add(err)
	if err != nil {
		return
	}
	base := "/api/v1/sessions/" + sess.ID
	defer func() {
		_, _, err := c.do(ctx, "DELETE", base, nil, nil)
		t.add(err)
	}()
	for j := 0; win.more(j); j++ {
		recorded := map[string]reportResponse{}
		keys := map[int]string{}
		var evals []reportResponse
		for _, st := range in.whatifCycle(cid, j) {
			var took time.Duration
			var err error
			switch st.op {
			case "add":
				var ix struct {
					Key string `json:"key"`
				}
				p := indexPool[st.ix]
				_, took, err = c.do(ctx, "POST", base+"/indexes", map[string]any{"table": p.table, "columns": p.columns}, &ix)
				keys[st.ix] = ix.Key
			case "drop":
				_, took, err = c.do(ctx, "DELETE", base+"/indexes?key="+url.QueryEscape(keys[st.ix]), nil, nil)
			case "explain":
				var plan struct {
					Plan string `json:"plan"`
				}
				_, took, err = c.do(ctx, "POST", base+"/explain", map[string]any{"sql": in.whatif[st.query]}, &plan)
				if err == nil && strings.TrimSpace(plan.Plan) == "" {
					err = errors.New("explain: empty plan")
				}
			case "evaluate":
				var rep reportResponse
				_, took, err = c.do(ctx, "POST", base+"/evaluate", map[string]any{"sql": in.whatif}, &rep)
				if err == nil && len(rep.Queries) != len(in.whatif) {
					err = fmt.Errorf("evaluate: %d query answers for %d queries", len(rep.Queries), len(in.whatif))
				}
				if err == nil && st.expect != "" && !sameReport(rep, recorded[st.expect]) {
					err = fmt.Errorf("evaluate after dropping back to design %q: totals %v/%v, want bit-identical %v/%v",
						st.expect, rep.BaseTotal, rep.NewTotal, recorded[st.expect].BaseTotal, recorded[st.expect].NewTotal)
				}
				if err == nil {
					evals = append(evals, rep)
					if st.record != "" {
						recorded[st.record] = rep
					}
				}
			}
			if err == nil {
				lat.add(st.op, took)
			}
			t.add(err)
			if err != nil {
				// The session no longer holds the design the remaining
				// steps assume; stop this client.
				return
			}
		}
		if j == 0 {
			run.mu.Lock()
			run.first[cid] = evals
			run.mu.Unlock()
		}
	}
}

// ---------------------------------------------------------------------------
// online_tuning: one client; each pass creates a tuner, starts its
// autopilot, streams the drifting then update-heavy stream in epoch-sized
// batches, reads the autopilot's status and decision journal, and stops it.
// ---------------------------------------------------------------------------

type autopilotResponse struct {
	Status struct {
		Decisions int     `json:"decisions"`
		LastSeq   int     `json:"last_seq"`
		RegretPct float64 `json:"regret_pct"`
	} `json:"status"`
	Regret []struct {
		LiveCost   float64 `json:"live_cost"`
		OracleCost float64 `json:"oracle_cost"`
	} `json:"regret"`
}

// pass is one online_tuning pass's outcome.
type pass struct {
	final    autopilotResponse
	streamed time.Duration
	observed int
}

func onlineLoop(ctx context.Context, c *client, in *inputs, win window, lat *latencies, t *tally) []pass {
	var passes []pass
	for p := 0; win.more(p); p++ {
		ps, err := onlinePass(ctx, c, in, p, lat, t)
		if err != nil {
			t.add(err)
			return passes
		}
		passes = append(passes, ps)
	}
	return passes
}

// onlinePass runs pass p; requests are counted in t, and the returned
// error is a failed control request or check that ends the loop. The first
// pass also reads the decision journal, which waits for one tick of the
// server's event stream.
func onlinePass(ctx context.Context, c *client, in *inputs, p int, lat *latencies, t *tally) (pass, error) {
	var ps pass
	batches, err := in.onlinePass(p)
	if err != nil {
		return ps, err
	}
	var tuner struct {
		ID string `json:"id"`
	}
	if _, _, err := c.do(ctx, "POST", "/api/v1/tuner", map[string]any{"epoch_length": epochLength}, &tuner); err != nil {
		return ps, err
	}
	t.add(nil)
	ap := "/api/v1/tuners/" + tuner.ID + "/autopilot"
	if _, _, err := c.do(ctx, "POST", ap, map[string]any{}, nil); err != nil {
		return ps, err
	}
	t.add(nil)
	start := time.Now()
	for _, batch := range batches {
		var obs struct {
			Observed int `json:"observed"`
		}
		_, took, err := c.do(ctx, "POST", "/api/v1/tuner/observe", map[string]any{"sql": batch}, &obs)
		if err == nil && obs.Observed != len(batch) {
			err = fmt.Errorf("observe: %d observed of %d sent", obs.Observed, len(batch))
		}
		if err != nil {
			return ps, err
		}
		t.add(nil)
		lat.add("observe", took)
		ps.observed += len(batch)
	}
	ps.streamed = time.Since(start)
	if _, _, err := c.do(ctx, "GET", ap, nil, &ps.final); err != nil {
		return ps, err
	}
	t.add(nil)
	var seqs []int
	if p == 0 {
		if seqs, err = c.decisions(ctx, ps.final.Status.Decisions); err != nil {
			return ps, err
		}
		t.add(nil)
	}
	if _, _, err := c.do(ctx, "DELETE", ap, nil, nil); err != nil {
		return ps, err
	}
	t.add(nil)
	if len(ps.final.Regret) == 0 {
		return ps, errors.New("autopilot: empty regret trajectory after the stream")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			return ps, fmt.Errorf("autopilot: decision seq %d follows %d", seqs[i], seqs[i-1])
		}
	}
	return ps, nil
}

// decisions reads the autopilot's decision journal from the tuner's
// server-sent event stream, which replays every decision to a new
// subscriber, and returns the sequence numbers once want have arrived.
func (c *client) decisions(ctx context.Context, want int) ([]int, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/api/v1/tuner/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var seqs []int
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for len(seqs) < want && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "decision":
			var d struct {
				Seq int `json:"seq"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				return nil, fmt.Errorf("decision stream: %w", err)
			}
			seqs = append(seqs, d.Seq)
		}
	}
	if len(seqs) < want {
		return nil, fmt.Errorf("decision stream: %d of %d decisions before it ended: %v", len(seqs), want, sc.Err())
	}
	return seqs, nil
}
