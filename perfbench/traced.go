package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/designer"
	"repro/internal/autopart"
	"repro/internal/autopilot"
	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/interaction"
	"repro/internal/schedule"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The traced run replays a fixed input prefix three ways: through the
// designer facade in-process (untraced, for the wall time the spans are
// compared with), over HTTP (for the serve layer's numbers and the designs
// the traced replay must reproduce), and through the layers' own Go
// functions with a span around every call, on fresh engines so the work
// counters can be checked to repeat exactly.

// whatifTracedCycles is how many cycles each what-if client replays.
const whatifTracedCycles = 2

// tracedRepeats and tracedBudget bound how often the facade and the traced
// replay each run: at least tracedRepeats times, and until each kind has
// taken tracedBudget in all.
const (
	tracedRepeats = 3
	tracedBudget  = time.Second
)

// span is one timed call. Parent indexes the enclosing span (-1 = none);
// Req numbers the replayed request the call belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and work counters in memory. The replay is
// single-threaded, so it needs no locking.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	req    int
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) start(name string) int {
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Start: tr.now(), Parent: parent, Req: tr.req})
	tr.open = append(tr.open, len(tr.spans)-1)
	return len(tr.spans) - 1
}

func (tr *tracer) finish(id int) {
	tr.spans[id].End = tr.now()
	tr.open = tr.open[:len(tr.open)-1]
}

// do runs fn inside a span named name.
func (tr *tracer) do(name string, fn func() error) error {
	id := tr.start(name)
	err := fn()
	tr.finish(id)
	return err
}

// request opens the root span of one replayed request.
func (tr *tracer) request(kind string) int {
	tr.req++
	return tr.start("request." + kind)
}

// tail records a child span covering the last d of span id: a phase the
// layer timed itself (CoPhy's solver time) at the end of the call.
func (tr *tracer) tail(id int, name string, d time.Duration) {
	p := tr.spans[id]
	tr.spans = append(tr.spans, span{Name: name, Start: p.End - int64(d), End: p.End, Parent: id, Req: p.Req})
}

func (tr *tracer) count(name string, v float64) { tr.counts[name] += v }

// stat summarises the spans with one name.
type stat struct {
	n          int
	total, own time.Duration
}

// stats returns per-name span counts, total time and self time (duration
// minus the time covered by child spans).
func (tr *tracer) stats() map[string]stat {
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]stat{}
	for i, s := range tr.spans {
		st := out[s.Name]
		st.n++
		st.total += s.dur()
		st.own += s.dur() - child[i]
		out[s.Name] = st
	}
	return out
}

// meanMS is the mean duration of the named spans in milliseconds (0 when
// the layer did not run on this workload).
func (st stat) meanMS() float64 {
	if st.n == 0 {
		return 0
	}
	return ms(st.total) / float64(st.n)
}

// ---------------------------------------------------------------------------
// Replays through the layers.
// ---------------------------------------------------------------------------

// parse mirrors designer.WorkloadFromSQL: one span per statement.
func parse(tr *tracer, schema *catalog.Schema, sqls []string, id func(i int, sql string) string) (*workload.Workload, error) {
	w := &workload.Workload{}
	for i, sql := range sqls {
		var stmt *sqlparse.SelectStmt
		err := tr.do("sqlparse.parse", func() error {
			var err error
			if stmt, err = sqlparse.ParseSelect(sql); err != nil {
				return err
			}
			return sqlparse.Resolve(stmt, schema)
		})
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		w.Queries = append(w.Queries, workload.Query{ID: id(i, sql), SQL: sql, Weight: 1, Stmt: stmt})
	}
	return w, nil
}

func positional(i int, _ string) string { return fmt.Sprintf("q%d", i) }

// contentID is the id the server's observe handler gives a statement.
func contentID(_ int, sql string) string {
	h := fnv.New64a()
	h.Write([]byte(sql))
	return fmt.Sprintf("http-%x", h.Sum64())
}

// warmState mirrors the designer's re-advise state: what a session reuses
// from its previous answer.
type warmState struct {
	version uint64
	wfp     string
	cands   []*catalog.Index
	basis   []string
	eval    *engine.EvalState
}

// tracedAdvise mirrors the designer's advise pipeline call for call:
// candidate generation, INUM preparation, CoPhy, AutoPart, the delta
// benefit report, the interaction graph and the schedule, against one
// pinned view, reusing warm state the way a session re-advise does.
func tracedAdvise(ctx context.Context, tr *tracer, eng *engine.Engine, v *engine.View, iw *workload.Workload, rq adviseRequest, warm *warmState) (*cophy.Result, *warmState, error) {
	if warm != nil && (warm.version != v.Version() || warm.wfp != iw.Fingerprint()) {
		warm = nil
	}
	var cands []*catalog.Index
	if warm != nil {
		cands = warm.cands
	} else {
		tr.do("whatif.candidates", func() error {
			cands = v.Session().GenerateCandidates(iw, whatif.DefaultCandidateOptions())
			return nil
		})
		tr.count("whatif.candidates", float64(len(cands)))
	}
	full0, _ := eng.CacheStats()
	if err := tr.do("inum.prepare", func() error { return v.Prepare(ctx, iw, cands) }); err != nil {
		return nil, nil, err
	}
	full1, _ := eng.CacheStats()
	tr.count("prepare_optimizations", float64(full1-full0))

	copts := cophy.DefaultOptions()
	copts.StorageBudgetPages = rq.budget
	copts.NodeBudget = adviseNodeBudget
	if warm != nil {
		copts.WarmStartKeys = warm.basis
	}
	id := tr.start("cophy.advise")
	cres, err := cophy.New(eng, cands).AdviseView(ctx, v, iw, copts)
	tr.finish(id)
	if err != nil {
		return nil, nil, err
	}
	tr.tail(id, "lp.solve", cres.SolveTime)
	tr.count("cophy.pricing_calls", float64(cres.PricingCalls))
	tr.count("lp.bnb_nodes", float64(cres.Nodes))
	tr.count("lp.gap_pct", 100*cres.Gap())
	tr.count("lp.solves", 1)

	cfg := catalog.NewConfiguration()
	for _, ix := range cres.Indexes {
		cfg = cfg.WithIndex(ix)
	}
	if rq.partitions {
		err := tr.do("autopart.advise", func() error {
			pres, err := autopart.New(eng).AdviseView(ctx, v, iw, cfg, autopart.DefaultOptions())
			if err == nil && pres.Improvement() > 0 {
				cfg = pres.Config
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	}
	var prev, next *engine.EvalState
	if warm != nil {
		prev = warm.eval
	}
	err = tr.do("engine.evaluate", func() error {
		var err error
		_, next, err = v.EvaluateDelta(ctx, iw, cfg, prev)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	tr.count("engine.recosted_queries", float64(next.Recosted))
	tr.count("engine.reused_queries", float64(next.Reused))
	if len(cres.Indexes) >= 2 { // interactions are on for every request
		err := tr.do("interaction.analyze", func() error {
			g, err := interaction.AnalyzeView(ctx, v, iw, cres.Indexes, interaction.DefaultOptions())
			if err == nil {
				tr.count("interaction.pruned_pairs", float64(g.PrunedPairs))
			}
			return err
		})
		if err == nil {
			err = tr.do("schedule.greedy", func() error {
				_, err := schedule.New(eng).GreedyView(ctx, v, iw, cres.Indexes)
				return err
			})
		}
		if err != nil {
			return nil, nil, err
		}
	}
	st := &warmState{version: v.Version(), wfp: iw.Fingerprint(), cands: cands, eval: next}
	for _, ix := range cres.Indexes {
		st.basis = append(st.basis, ix.Key())
	}
	return cres, st, nil
}

// replayAdvise replays the verified advise_design prefix through the
// layers and returns one answer per request.
func replayAdvise(ctx context.Context, tr *tracer, eng *engine.Engine, in *inputs) ([]designAnswer, error) {
	var out []designAnswer
	for k := 0; k < verifiedCycles; k++ {
		cyc, err := in.cycle(k)
		if err != nil {
			return nil, err
		}
		v := eng.Pin() // a session pins one generation
		var warm *warmState
		var pages int64
		for i, rq := range cyc.requests {
			rq = rq.resolve(pages)
			kind := "readvise"
			if i == 0 {
				kind = "advise"
			}
			id := tr.request(kind)
			iw, err := parse(tr, eng.Schema(), cyc.sql, positional)
			var res *cophy.Result
			if err == nil {
				res, warm, err = tracedAdvise(ctx, tr, eng, v, iw, rq, warm)
			}
			tr.finish(id)
			if err != nil {
				return nil, err
			}
			a := designAnswer{sql: cyc.sql, first: i == 0, request: rq, objective: res.Objective, baseline: res.BaselineCost, proven: res.Proven}
			for _, ix := range res.Indexes {
				a.keys = append(a.keys, ix.Key())
				if i == 0 {
					pages += ix.EstimatedPages
				}
			}
			out = append(out, a)
		}
	}
	return out, nil
}

// replayWhatif replays each what-if client's first cycles the way a design
// session runs them and returns the evaluate answers of every first cycle.
func replayWhatif(ctx context.Context, tr *tracer, eng *engine.Engine, base *catalog.Configuration, in *inputs) (map[int][]reportResponse, error) {
	first := map[int][]reportResponse{}
	for cid := 0; cid < whatifClients; cid++ {
		v := eng.Pin()
		cfg := base.Clone()
		var state *engine.EvalState
		for j := 0; j < whatifTracedCycles; j++ {
			keys := map[int]string{}
			for _, st := range in.whatifCycle(cid, j) {
				id := tr.request(st.op)
				var err error
				switch st.op {
				case "add":
					p := indexPool[st.ix]
					err = tr.do("whatif.hypothetical", func() error {
						ix, err := v.Session().HypotheticalIndex(p.table, p.columns...)
						if err == nil {
							cfg = cfg.WithIndex(ix)
							keys[st.ix] = ix.Key()
						}
						return err
					})
				case "drop":
					cfg = cfg.WithoutIndex(keys[st.ix])
				case "explain":
					var w *workload.Workload
					if w, err = parse(tr, eng.Schema(), in.whatif[st.query:st.query+1], positional); err == nil {
						err = tr.do("optimizer.explain", func() error {
							_, err := v.Session().Explain(w.Queries[0].Stmt, cfg)
							return err
						})
					}
				case "evaluate":
					var w *workload.Workload
					if w, err = parse(tr, eng.Schema(), in.whatif, positional); err == nil {
						err = tr.do("engine.evaluate", func() error {
							rep, next, err := v.EvaluateDelta(ctx, w, cfg, state)
							if err != nil {
								return err
							}
							state = next
							tr.count("engine.recosted_queries", float64(next.Recosted))
							tr.count("engine.reused_queries", float64(next.Reused))
							if j == 0 {
								first[cid] = append(first[cid], toReport(rep))
							}
							return nil
						})
					}
				}
				tr.finish(id)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return first, nil
}

func toReport(rep *whatif.Report) reportResponse {
	r := reportResponse{BaseTotal: rep.BaseTotal, NewTotal: rep.NewTotal}
	r.Queries = make([]struct {
		NewCost float64 `json:"new_cost"`
	}, len(rep.Queries))
	for i, q := range rep.Queries {
		r.Queries[i].NewCost = q.NewCost
	}
	return r
}

// replayOnline replays one online_tuning pass through an autopilot built
// the way the server builds it, and returns its final status.
func replayOnline(ctx context.Context, tr *tracer, eng *engine.Engine, base *catalog.Configuration, in *inputs) (autopilot.Status, error) {
	opts := autopilot.DefaultOptions()
	opts.Colt = colt.DefaultOptions()
	opts.Colt.EpochLength = epochLength
	ap, err := autopilot.New(eng, base, opts)
	if err != nil {
		return autopilot.Status{}, err
	}
	defer ap.Close()
	batches, err := in.onlinePass(0)
	if err != nil {
		return autopilot.Status{}, err
	}
	for _, batch := range batches {
		id := tr.request("observe")
		w, err := parse(tr, eng.Schema(), batch, contentID)
		for i := 0; err == nil && i < len(w.Queries); i++ {
			epoch := ap.Tuner().Epoch()
			sid := tr.start("colt.observe")
			_, err = ap.Observe(ctx, w.Queries[i])
			tr.finish(sid)
			if ap.Tuner().Epoch() != epoch {
				tr.spans[sid].Name = "autopilot.epoch" // this query closed an epoch
			}
		}
		tr.finish(id)
		if err != nil {
			return autopilot.Status{}, err
		}
	}
	st := ap.Status()
	tr.count("autopilot.decisions", float64(st.Decisions))
	tr.count("autopilot.rollbacks", float64(st.Rollbacks))
	return st, nil
}

// ---------------------------------------------------------------------------
// The same inputs through the facade, untraced.
// ---------------------------------------------------------------------------

// facadeRun is the untraced facade replay: its wall time, and for
// advise_design the allocations per design call.
type facadeRun struct {
	wall               time.Duration
	calls              int
	allocs, allocBytes uint64
}

func facadeAdvise(ctx context.Context, d *designer.Designer, in *inputs) (facadeRun, error) {
	var fr facadeRun
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < verifiedCycles; k++ {
		cyc, err := in.cycle(k)
		if err != nil {
			return fr, err
		}
		s := d.NewDesignSession()
		var pages int64
		for i, rq := range cyc.requests {
			opts := adviceOptions(rq.resolve(pages))
			start := time.Now()
			w, err := d.WorkloadFromSQL(cyc.sql)
			if err == nil {
				if i == 0 {
					var a *designer.Advice
					if a, err = s.Advise(ctx, w, opts); err == nil {
						for _, ix := range a.Indexes {
							pages += ix.EstimatedPages
						}
					}
				} else {
					_, _, err = s.ReAdvise(ctx, w, opts)
				}
			}
			fr.wall += time.Since(start)
			fr.calls++
			if err != nil {
				return fr, err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	fr.allocs = m1.Mallocs - m0.Mallocs
	fr.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return fr, nil
}

func facadeWhatif(ctx context.Context, d *designer.Designer, in *inputs) (facadeRun, error) {
	var fr facadeRun
	for cid := 0; cid < whatifClients; cid++ {
		s := d.NewDesignSession()
		for j := 0; j < whatifTracedCycles; j++ {
			keys := map[int]string{}
			for _, st := range in.whatifCycle(cid, j) {
				start := time.Now()
				var err error
				switch st.op {
				case "add":
					var ix designer.Index
					ix, err = s.AddIndex(indexPool[st.ix].table, indexPool[st.ix].columns...)
					keys[st.ix] = ix.Key()
				case "drop":
					if !s.DropIndex(keys[st.ix]) {
						err = fmt.Errorf("drop %s: not in the design", keys[st.ix])
					}
				case "explain":
					var q designer.Query
					if q, err = d.ParseQuery("q", in.whatif[st.query]); err == nil {
						_, err = s.Explain(q)
					}
				case "evaluate":
					var w *designer.Workload
					if w, err = d.WorkloadFromSQL(in.whatif); err == nil {
						_, err = s.Evaluate(ctx, w)
					}
				}
				fr.wall += time.Since(start)
				fr.calls++
				if err != nil {
					return fr, err
				}
			}
		}
	}
	return fr, nil
}

func facadeOnline(ctx context.Context, d *designer.Designer, in *inputs) (facadeRun, error) {
	var fr facadeRun
	topts := designer.DefaultTunerOptions()
	topts.EpochLength = epochLength
	ap, err := d.NewAutopilot(topts, designer.DefaultAutopilotOptions())
	if err != nil {
		return fr, err
	}
	defer ap.Close()
	batches, err := in.onlinePass(0)
	if err != nil {
		return fr, err
	}
	for _, batch := range batches {
		start := time.Now()
		qs := make([]designer.Query, 0, len(batch))
		for i, sql := range batch {
			q, err := d.ParseQuery(contentID(i, sql), sql)
			if err != nil {
				return fr, err
			}
			qs = append(qs, q)
		}
		_, err := ap.ObserveAll(ctx, qs)
		fr.wall += time.Since(start)
		fr.calls++
		if err != nil {
			return fr, err
		}
	}
	return fr, nil
}

// ---------------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------------

// facade replays the workload's prefix through the designer facade.
func facade(ctx context.Context, workloadName string, d *designer.Designer, in *inputs) (facadeRun, error) {
	switch workloadName {
	case "advise_design":
		return facadeAdvise(ctx, d, in)
	case "whatif_session":
		return facadeWhatif(ctx, d, in)
	}
	return facadeOnline(ctx, d, in)
}

// tracedPass is one traced replay on a fresh engine.
type tracedPass struct {
	tr *tracer
	// wall is the time spent in the replayed requests: the sum of the root
	// spans, which time the same calls the facade run times.
	wall    time.Duration
	quality float64
	advice  []designAnswer
	whatif  map[int][]reportResponse
	online  autopilot.Status
	full    int64
	cached  int64
}

// exactCounters must repeat exactly between replays of one seed.
var exactCounters = []string{
	"lp.bnb_nodes", "cophy.pricing_calls", "whatif.candidates", "engine.recosted_queries",
	"interaction.pruned_pairs", "autopilot.decisions",
}

func replay(ctx context.Context, workloadName string, store *storage.Store, in *inputs) (*tracedPass, error) {
	eng, err := engine.NewWithBackend(store.Schema, store.Stats, store.MaterializedConfiguration(), engine.BackendSpec{})
	if err != nil {
		return nil, err
	}
	p := &tracedPass{tr: newTracer()}
	switch workloadName {
	case "advise_design":
		p.advice, err = replayAdvise(ctx, p.tr, eng, in)
		var savings []float64
		for _, a := range p.advice {
			savings = append(savings, a.saving())
		}
		p.quality = mean(savings)
	case "whatif_session":
		p.whatif, err = replayWhatif(ctx, p.tr, eng, store.MaterializedConfiguration(), in)
		p.quality = whatifSaving(p.whatif)
	case "online_tuning":
		p.online, err = replayOnline(ctx, p.tr, eng, store.MaterializedConfiguration(), in)
		p.quality = p.online.RegretPct
	}
	for _, s := range p.tr.spans {
		if s.Parent < 0 {
			p.wall += s.dur()
		}
	}
	p.full, p.cached = eng.CacheStats()
	p.tr.counts["inum.full_optimizations"] = float64(p.full)
	return p, err
}

// sameWork reports the first work counter or quality figure in which
// replay b differs from replay a.
func sameWork(a, b *tracedPass, counters []string) error {
	for _, name := range counters {
		if a.tr.counts[name] != b.tr.counts[name] {
			return fmt.Errorf("counter %s: %v on one replay, %v on another", name, a.tr.counts[name], b.tr.counts[name])
		}
	}
	if math.Float64bits(a.quality) != math.Float64bits(b.quality) {
		return fmt.Errorf("quality %v on one replay, %v on another", a.quality, b.quality)
	}
	return nil
}

// tracedSetup builds the store the replays run on: it generates the
// dataset, then loads the generated rows into a fresh store and analyzes
// that store, with a span around each step.
func tracedSetup(tr *tracer, size string, seed int64) (*storage.Store, error) {
	sz, err := workload.SizeByName(size)
	if err != nil {
		return nil, err
	}
	var gen *storage.Store
	err = tr.do("workload.generate", func() error {
		var err error
		gen, err = workload.Generate(sz, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	store := storage.NewStore(gen.Schema)
	err = tr.do("storage.load", func() error {
		for _, t := range gen.Schema.Tables() {
			if err := store.Load(t.Name, gen.Heap(t.Name).Rows()); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = tr.do("stats.analyze", func() error { return store.Analyze() })
	}
	return store, err
}

// runTraced is the --trace 1 run.
func runTraced(ctx context.Context, cfg config, in *inputs, report io.Writer) (*result, error) {
	t := &tally{}
	setupTr := newTracer()
	store, err := tracedSetup(setupTr, cfg.size, cfg.seed)
	if err != nil {
		return nil, err
	}
	svc, _, err := boot(ctx, cfg.size, cfg.seed)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.stop()
		}
	}()

	// 1. The facade, untraced, on the server's fresh designer.
	fr, err := facade(ctx, cfg.workload, svc.d, in)
	if err != nil {
		return nil, fmt.Errorf("facade replay: %w", err)
	}

	// 2. The same inputs over HTTP.
	lat := newLatencies()
	var httpAdvice []designAnswer
	var httpWhatif *whatifRun
	var httpOnline []pass
	switch cfg.workload {
	case "advise_design":
		err = adviseLoop(ctx, svc.c, in, 0, window{minCycles: verifiedCycles}, lat, t, func(a designAnswer) error {
			httpAdvice = append(httpAdvice, a)
			return nil
		})
	case "whatif_session":
		httpWhatif = whatifLoop(ctx, svc.c, in, window{minCycles: whatifTracedCycles}, lat, t)
	case "online_tuning":
		httpOnline = onlineLoop(ctx, svc.c, in, window{minCycles: 1}, lat, t)
	}
	if err != nil {
		return nil, err
	}
	routes, rejected, err := svc.c.handlerTotals(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	stopped = true
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	// 3. Two traced replays on fresh engines.
	// 3. Traced replays on fresh engines, alternating with more untraced
	// facade runs: at least tracedRepeats of each, and more until each kind
	// has run for tracedBudget, so short prefixes are timed often enough.
	// Host noise only ever adds time, so the fastest of each kind are the
	// ones compared.
	exact := exactCounters
	if cfg.workload != "online_tuning" {
		// The online stream names queries by their text, so two copies of
		// one statement in an epoch can miss the INUM cache at once and be
		// optimized twice; TestConcurrentPrepareBuildsOnce pins this.
		exact = append(exact, "inum.full_optimizations")
	}
	a, err := replay(ctx, cfg.workload, store, in)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	fastest, facadeTotal, tracedTotal, repeats := a, fr.wall, a.wall, 1
	var repeatErr error
	for ; repeats < tracedRepeats || facadeTotal < tracedBudget || tracedTotal < tracedBudget; repeats++ {
		f, err := facade(ctx, cfg.workload, svc.d, in)
		if err != nil {
			return nil, fmt.Errorf("facade replay: %w", err)
		}
		fr.wall = min(fr.wall, f.wall)
		facadeTotal += f.wall
		p, err := replay(ctx, cfg.workload, store, in)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		tracedTotal += p.wall
		if p.wall < fastest.wall {
			fastest = p
		}
		if repeatErr == nil {
			repeatErr = sameWork(a, p, exact)
		}
	}
	if repeatErr != nil {
		t.add(repeatErr)
	}

	// The traced replay must reproduce the HTTP designs.
	switch cfg.workload {
	case "advise_design":
		if len(httpAdvice) != len(a.advice) {
			t.add(fmt.Errorf("HTTP gave %d answers, traced replay %d", len(httpAdvice), len(a.advice)))
		}
		for i := range min(len(httpAdvice), len(a.advice)) {
			t.add(sameDesign("HTTP answer vs traced replay", httpAdvice[i], a.advice[i].keys, a.advice[i].objective))
		}
	case "whatif_session":
		for cid := 0; cid < whatifClients; cid++ {
			h, r := httpWhatif.first[cid], a.whatif[cid]
			ok := len(h) == len(r)
			for i := 0; ok && i < len(h); i++ {
				ok = sameReport(h[i], r[i])
			}
			if !ok {
				t.add(fmt.Errorf("what-if client %d: traced evaluates differ from HTTP", cid))
			}
		}
	case "online_tuning":
		if len(httpOnline) == 0 {
			t.add(fmt.Errorf("no online pass completed over HTTP"))
			break
		}
		h := httpOnline[0].final.Status
		if h.Decisions != a.online.Decisions || h.LastSeq != a.online.LastSeq ||
			math.Float64bits(h.RegretPct) != math.Float64bits(a.online.RegretPct) {
			t.add(fmt.Errorf("autopilot over HTTP: %d decisions, regret %v%%; traced: %d decisions, regret %v%%",
				h.Decisions, h.RegretPct, a.online.Decisions, a.online.RegretPct))
		}
	}

	m := layerMetrics(cfg.workload, setupTr, fastest, fr, lat, routes, rejected)
	if cfg.out != "" {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := dumpSpans(path, setupTr, fastest.tr); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	fmt.Fprintf(report, "workload %s seed %d traced: fastest of %d: facade %.1fms over %d calls, traced replay %.1fms, %d spans\n",
		cfg.workload, cfg.seed, repeats, ms(fr.wall), fr.calls, ms(fastest.wall), len(fastest.tr.spans))
	fmt.Fprintln(report, "self time by span (ms):")
	st := fastest.tr.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(report, "  %-28s %6d calls %12.3f self %12.3f total\n", n, st[n].n, ms(st[n].own), ms(st[n].total))
	}
	fmt.Fprintln(report, "per-layer metrics:")
	printMetrics(report, m)
	for _, e := range t.errs {
		fmt.Fprintln(report, "FAILED:", e)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// servedRoutes names the serve.handler_ms metrics: the route pattern the
// server labels its latency histogram with, and the client's latency kinds
// for the same requests.
var servedRoutes = []struct {
	suffix, route string
	kinds         []string
}{
	{"advise", "/api/v1/sessions/{id}/advise", []string{"advise"}},
	{"readvise", "/api/v1/sessions/{id}/readvise", []string{"readvise"}},
	{"evaluate", "/api/v1/sessions/{id}/evaluate", []string{"evaluate"}},
	{"explain", "/api/v1/sessions/{id}/explain", []string{"explain"}},
	{"indexes", "/api/v1/sessions/{id}/indexes", []string{"add", "drop"}},
	{"observe", "/api/v1/tuner/observe", []string{"observe"}},
}

func layerMetrics(workloadName string, setup *tracer, p *tracedPass, fr facadeRun, lat *latencies, routes map[string][2]float64, rejected float64) map[string]metric {
	st := p.tr.stats()
	ss := setup.stats()
	c := p.tr.counts
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	m := map[string]metric{
		"storage.load_ms":              {ms(ss["storage.load"].total), "ms"},
		"stats.analyze_ms":             {ms(ss["stats.analyze"].total), "ms"},
		"sqlparse.parse_us":            {1000 * st["sqlparse.parse"].meanMS(), "us"},
		"whatif.candidates_ms":         {st["whatif.candidates"].meanMS(), "ms"},
		"whatif.candidates":            {c["whatif.candidates"], "count"},
		"inum.prepare_ms":              {st["inum.prepare"].meanMS(), "ms"},
		"inum.full_optimizations":      {float64(p.full), "count"},
		"inum.cached_costings":         {float64(p.cached), "count"},
		"inum.hit_ratio":               {per(float64(p.cached), float64(p.cached+p.full)), "ratio"},
		"optimizer.optimize_us":        {1000 * per(ms(st["inum.prepare"].total+st["optimizer.explain"].total), c["prepare_optimizations"]+float64(st["optimizer.explain"].n)), "us"},
		"cophy.pricing_calls":          {c["cophy.pricing_calls"], "count"},
		"cophy.build_ms":               {per(ms(st["cophy.advise"].own), float64(st["cophy.advise"].n)), "ms"},
		"lp.bnb_nodes":                 {c["lp.bnb_nodes"], "count"},
		"lp.solve_ms":                  {st["lp.solve"].meanMS(), "ms"},
		"lp.gap_pct":                   {per(c["lp.gap_pct"], c["lp.solves"]), "%"},
		"engine.evaluate_ms":           {st["engine.evaluate"].meanMS(), "ms"},
		"engine.recosted_queries":      {c["engine.recosted_queries"], "count"},
		"engine.reused_queries":        {c["engine.reused_queries"], "count"},
		"autopart.advise_ms":           {st["autopart.advise"].meanMS(), "ms"},
		"interaction.analyze_ms":       {st["interaction.analyze"].meanMS(), "ms"},
		"interaction.pruned_pairs":     {c["interaction.pruned_pairs"], "count"},
		"schedule.greedy_ms":           {st["schedule.greedy"].meanMS(), "ms"},
		"colt.observe_us":              {1000 * st["colt.observe"].meanMS(), "us"},
		"autopilot.epoch_ms":           {st["autopilot.epoch"].meanMS(), "ms"},
		"autopilot.decisions":          {c["autopilot.decisions"], "count"},
		"autopilot.rollbacks":          {c["autopilot.rollbacks"], "count"},
		"designer.allocs_per_advise":   {0, "count"},
		"designer.alloc_mb_per_advise": {0, "MB"},
		"serve.admission_rejected":     {rejected, "count"},
	}
	if workloadName == "advise_design" {
		m["designer.allocs_per_advise"] = metric{per(float64(fr.allocs), float64(fr.calls)), "count"}
		m["designer.alloc_mb_per_advise"] = metric{per(float64(fr.allocBytes)/(1<<20), float64(fr.calls)), "MB"}
	}
	var clientTotal, handlerTotal, n float64
	for _, sr := range servedRoutes {
		r := routes[sr.route]
		m["serve.handler_ms."+sr.suffix] = metric{1000 * per(r[1], r[0]), "ms"}
		for _, d := range lat.of(sr.kinds...) {
			clientTotal += ms(d)
		}
		handlerTotal += 1000 * r[1]
		n += r[0]
	}
	m["serve.overhead_ms"] = metric{per(clientTotal-handlerTotal, n), "ms"}

	// Coverage: the share of the untraced facade's wall time that the layer
	// spans directly under each replayed request account for.
	var covered time.Duration
	for _, s := range p.tr.spans {
		if s.Parent >= 0 && p.tr.spans[s.Parent].Parent < 0 {
			covered += s.dur()
		}
	}
	m["trace.coverage_pct"] = metric{100 * per(float64(covered), float64(fr.wall)), "%"}
	m["trace.overhead_pct"] = metric{100 * per(float64(p.wall-fr.wall), float64(fr.wall)), "%"}
	return m
}

// dumpSpans writes the setup's and the first replay's spans as JSON.
func dumpSpans(path string, setup, replay *tracer) error {
	b, err := json.Marshal(map[string][]span{"setup": setup.spans, "replay": replay.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
