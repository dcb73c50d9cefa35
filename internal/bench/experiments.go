package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/designer"
	"repro/internal/autopart"
	"repro/internal/autopilot"
	"repro/internal/catalog"
	"repro/internal/colt"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/greedy"
	"repro/internal/interaction"
	"repro/internal/lp"
	"repro/internal/optimizer"
	"repro/internal/schedule"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Step functions: each is one logical unit of measured work, shared between
// the harness runners below and the Benchmark* wrappers in bench_test.go.
// ---------------------------------------------------------------------------

// INUMCostOnce prices one (query, configuration) pair through the INUM
// cache — E8's fast path.
func (e *Env) INUMCostOnce(i int, cfgs []*catalog.Configuration) error {
	q := e.W.Queries[i%len(e.W.Queries)]
	_, err := e.Eng.Pin().QueryCost(q, cfgs[i%len(cfgs)])
	return err
}

// FullCostOnce prices one (query, configuration) pair with the complete
// optimizer — E8's baseline.
func (e *Env) FullCostOnce(i int, cfgs []*catalog.Configuration) error {
	q := e.W.Queries[i%len(e.W.Queries)]
	_, err := e.Eng.Pin().FullCost(q.Stmt, cfgs[i%len(cfgs)])
	return err
}

// PipelineCallsAvoided runs a full designer pipeline (CoPhy + interaction
// analysis + scheduling) on a cold engine and reports how many cached
// costings were served per full optimizer invocation — the
// latency-independent form of the paper's "orders of magnitude" claim.
func (e *Env) PipelineCallsAvoided() (ratio float64, err error) {
	ctx := context.Background()
	eng := e.FreshEngine()
	v := eng.Pin()
	res, err := cophy.New(eng, e.Cands).AdviseView(ctx, v, e.W, cophy.DefaultOptions())
	if err != nil {
		return 0, err
	}
	if len(res.Indexes) >= 2 {
		if _, err := interaction.AnalyzeView(ctx, v, e.W, res.Indexes, interaction.DefaultOptions()); err != nil {
			return 0, err
		}
		if _, err := schedule.New(eng).GreedyView(ctx, v, e.W, res.Indexes); err != nil {
			return 0, err
		}
	}
	full, cached := eng.CacheStats()
	if full > 0 {
		ratio = float64(cached) / float64(full)
	}
	return ratio, nil
}

// CoPhy runs the CoPhy advisor over the Env's workload and candidates with
// the given storage budget (0 = unlimited) and node budget (0 = prove
// optimality).
func (e *Env) CoPhy(budgetPages int64, nodeBudget int) (*cophy.Result, error) {
	opts := cophy.DefaultOptions()
	opts.StorageBudgetPages = budgetPages
	opts.NodeBudget = nodeBudget
	return cophy.New(e.Eng, e.Cands).AdviseView(context.Background(), e.Eng.Pin(), e.W, opts)
}

// Greedy runs the DTA-style greedy baseline at a storage budget.
func (e *Env) Greedy(budgetPages int64) (*greedy.Result, error) {
	return greedy.New(e.Cands).Advise(context.Background(), e.Eng.Pin(), e.W,
		greedy.Options{StorageBudgetPages: budgetPages, BenefitPerPage: true})
}

// Exhaustive enumerates every candidate subset within the budget — ground
// truth for small candidate sets.
func (e *Env) Exhaustive(budgetPages int64) (*greedy.Result, error) {
	return greedy.Exhaustive(context.Background(), e.Eng.Pin(), e.Cands, e.W, budgetPages)
}

// InteractionGraph analyzes the advised index set's interactions with the
// given number of sampled contexts (E2).
func (e *Env) InteractionGraph(sampleContexts int) (*interaction.Graph, error) {
	advised, err := e.Advised()
	if err != nil {
		return nil, err
	}
	if len(advised) < 2 {
		return nil, nil
	}
	opts := interaction.DefaultOptions()
	opts.SampleContexts = sampleContexts
	return interaction.AnalyzeView(context.Background(), e.Eng.Pin(), e.W, advised, opts)
}

// Schedules builds the interaction-aware and oblivious materialization
// schedules over the advised set (E9). Both are nil when fewer than two
// indexes are advised.
func (e *Env) Schedules() (aware, oblivious *schedule.Schedule, err error) {
	advised, err := e.Advised()
	if err != nil {
		return nil, nil, err
	}
	if len(advised) < 2 {
		return nil, nil, nil
	}
	v, sched := e.Eng.Pin(), schedule.New(e.Eng)
	aware, err = sched.GreedyView(context.Background(), v, e.W, advised)
	if err != nil {
		return nil, nil, err
	}
	oblivious, err = sched.ObliviousView(context.Background(), v, e.W, advised)
	if err != nil {
		return nil, nil, err
	}
	return aware, oblivious, nil
}

// COLTResult is the outcome of one online-tuning run over a stream.
type COLTResult struct {
	SavingsPct    float64 // adaptive vs static-empty cumulative cost
	Queries       int
	Epochs        int
	ConfigChanges int
	Alerts        int
	// ObserveNs is the wall-clock time spent in Tuner.ObserveAll only —
	// dataset, stream, and static-baseline preparation are excluded, so
	// observe_per_query tracks the tuner, not the generators.
	ObserveNs float64
}

// COLTFixture is the prepared state for online-tuning runs: an unshared
// costing engine over the Env's dataset, the profile-drawn stream (stream
// seed = dataset seed + 2), and the static no-index baseline cost, all
// computed once so repeated Run calls time only the tuner.
type COLTFixture struct {
	eng    *engine.Engine
	stream []workload.Query
	static float64
}

// COLTFixture builds the online-tuning fixture for the E6 experiment.
func (e *Env) COLTFixture(streamLen int) (*COLTFixture, error) {
	p, err := workload.ProfileByName(e.Profile)
	if err != nil {
		return nil, err
	}
	eng := e.FreshEngine()
	stream, err := p.GenerateStream(e.Store.Schema, e.Seed+2, streamLen)
	if err != nil {
		return nil, err
	}
	var static float64
	empty := catalog.NewConfiguration()
	v := eng.Pin()
	for _, q := range stream {
		c, err := v.QueryCost(q, empty)
		if err != nil {
			return nil, err
		}
		static += c
	}
	return &COLTFixture{eng: eng, stream: stream, static: static}, nil
}

// Run streams the fixture through a fresh COLT tuner and reports savings
// against the precomputed static baseline (E6).
func (f *COLTFixture) Run(epochLen int) (*COLTResult, error) {
	opts := colt.DefaultOptions()
	opts.EpochLength = epochLen
	tuner := colt.New(f.eng, nil, opts)
	defer tuner.Close()
	start := time.Now()
	adaptive, err := tuner.ObserveAll(context.Background(), f.stream)
	if err != nil {
		return nil, err
	}
	out := &COLTResult{
		Queries:   len(f.stream),
		Alerts:    len(tuner.Alerts()),
		ObserveNs: float64(time.Since(start).Nanoseconds()),
	}
	if f.static > 0 {
		out.SavingsPct = (f.static - adaptive) / f.static * 100
	}
	for _, r := range tuner.Reports() {
		out.Epochs++
		if r.ConfigChanged {
			out.ConfigChanges++
		}
	}
	return out, nil
}

// COLTStream is COLTFixture + one Run — the harness's single-shot form.
func (e *Env) COLTStream(streamLen, epochLen int) (*COLTResult, error) {
	f, err := e.COLTFixture(streamLen)
	if err != nil {
		return nil, err
	}
	return f.Run(epochLen)
}

// AutopilotResult is the outcome of one closed-loop tuning run: COLT under
// the autopilot supervisor, with regret against the oracle-best design as
// the trajectory metric.
type AutopilotResult struct {
	SavingsPct     float64 // adaptive vs static-empty cumulative cost
	FirstRegretPct float64 // regret at the first sampled epoch
	FinalRegretPct float64 // regret at the last sampled epoch
	MinRegretPct   float64 // best regret reached anywhere in the run
	Queries        int
	Epochs         int
	Decisions      int
	Builds         int64
	BuildPages     int64
	Rollbacks      int64
	RegretSamples  int
	ObserveNs      float64 // ObserveAll wall-clock only, like COLTResult
}

// AutopilotStream drives the colt_autopilot experiment: the profile-drawn
// stream through autopilot.New over a fresh engine, a generous build
// budget (so adopted indexes materialize within an epoch or two even on
// the short smoke stream), and a capped exhaustive oracle for the regret
// samples.
func (e *Env) AutopilotStream(streamLen, epochLen int) (*AutopilotResult, error) {
	p, err := workload.ProfileByName(e.Profile)
	if err != nil {
		return nil, err
	}
	eng := e.FreshEngine()
	stream, err := p.GenerateStream(e.Store.Schema, e.Seed+2, streamLen)
	if err != nil {
		return nil, err
	}
	var static float64
	empty := catalog.NewConfiguration()
	v := eng.Pin()
	for _, q := range stream {
		c, err := v.QueryCost(q, empty)
		if err != nil {
			return nil, err
		}
		static += c
	}

	opts := autopilot.DefaultOptions()
	opts.Colt.EpochLength = epochLen
	opts.BuildBudgetPages = 512
	opts.ProbationEpochs = 2
	opts.RegretCandidates = 6
	ap, err := autopilot.New(eng, nil, opts)
	if err != nil {
		return nil, err
	}
	defer ap.Close()

	start := time.Now()
	adaptive, err := ap.ObserveAll(context.Background(), stream)
	if err != nil {
		return nil, err
	}
	out := &AutopilotResult{
		Queries:   len(stream),
		ObserveNs: float64(time.Since(start).Nanoseconds()),
	}
	if static > 0 {
		out.SavingsPct = (static - adaptive) / static * 100
	}
	st := ap.Status()
	out.Epochs = st.Epoch
	out.Decisions = st.Decisions
	out.Builds = st.BuildsCompleted
	out.BuildPages = st.BuildPages
	out.Rollbacks = st.Rollbacks
	regret := ap.Regret()
	out.RegretSamples = len(regret)
	if len(regret) > 0 {
		out.FirstRegretPct = regret[0].RegretPct
		out.FinalRegretPct = regret[len(regret)-1].RegretPct
		out.MinRegretPct = regret[0].RegretPct
		for _, r := range regret {
			if r.RegretPct < out.MinRegretPct {
				out.MinRegretPct = r.RegretPct
			}
		}
	}
	return out, nil
}

// SweepOnce runs one configuration sweep over the Env's workload with the
// given worker count (1 = serial, 0 = GOMAXPROCS) and restores the Env's
// worker default before returning.
func (e *Env) SweepOnce(workers int, cfgs []*catalog.Configuration) error {
	e.Eng.SetWorkers(workers)
	defer e.Eng.SetWorkers(e.defaultWorkers)
	_, err := e.Eng.Pin().SweepConfigs(context.Background(), e.W, cfgs)
	return err
}

// SweepParity verifies the parallel sweep is bit-for-bit identical to the
// serial sweep and returns the maximum absolute cost difference (0 when the
// determinism contract holds).
func (e *Env) SweepParity(cfgs []*catalog.Configuration) (float64, error) {
	v := e.Eng.Pin()
	e.Eng.SetWorkers(1)
	serial, err := v.SweepConfigs(context.Background(), e.W, cfgs)
	e.Eng.SetWorkers(e.defaultWorkers)
	if err != nil {
		return 0, err
	}
	parallel, err := v.SweepConfigs(context.Background(), e.W, cfgs)
	if err != nil {
		return 0, err
	}
	var maxDiff float64
	for i := range serial {
		d := serial[i] - parallel[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff, nil
}

// ScalingWidths are the fixed sweep widths parallel_scaling measures.
// Fixed — never GOMAXPROCS — so the experiment's deterministic cells are
// identical on any machine, including 1-core CI.
var ScalingWidths = []int{1, 2, 4, 16}

// ScalingCell is one width's measurement in the parallel_scaling experiment.
type ScalingCell struct {
	Workers       int
	SweepExact    bool    // sweep costs bit-identical to the serial sweep
	SweepMaxDiff  float64 // max |cost - serial cost| (0 when exact)
	SweepNs       float64
	ReadviseExact bool // warm re-advise design + report identical to serial
	ReadviseNs    float64
}

// ScalingResult is the outcome of one parallel_scaling measurement: the
// per-width cells.
type ScalingResult struct {
	Configs int
	Cells   []ScalingCell
}

// ParallelScaling measures sweep and warm-re-advise latency at each fixed
// width, asserting every width's answers are bit-identical to the serial
// ones — the determinism contract as a recorded metric.
func (e *Env) ParallelScaling(reps int) (*ScalingResult, error) {
	ctx := context.Background()
	cfgs := e.SweepFamily(32)
	out := &ScalingResult{Configs: len(cfgs)}

	var ref []float64 // serial sweep costs (width 1, the first cell)
	var refKeys []string
	var refBase, refNew float64
	for _, width := range ScalingWidths {
		cell := ScalingCell{Workers: width}
		e.Eng.SetWorkers(width)
		costs, err := e.Eng.Pin().SweepConfigs(ctx, e.W, cfgs)
		e.Eng.SetWorkers(e.defaultWorkers)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = costs
		}
		cell.SweepExact, cell.SweepMaxDiff = costParity(ref, costs)
		cell.SweepNs, err = timeOp(reps, func() error { return e.SweepOnce(width, cfgs) })
		if err != nil {
			return nil, err
		}
		keys, baseTotal, newTotal, readviseNs, err := e.readviseAtWidth(width)
		if err != nil {
			return nil, err
		}
		if refKeys == nil {
			refKeys, refBase, refNew = keys, baseTotal, newTotal
		}
		cell.ReadviseExact = baseTotal == refBase && newTotal == refNew && len(keys) == len(refKeys)
		if cell.ReadviseExact {
			for i := range keys {
				if keys[i] != refKeys[i] {
					cell.ReadviseExact = false
					break
				}
			}
		}
		cell.ReadviseNs = readviseNs
		out.Cells = append(out.Cells, cell)
	}

	return out, nil
}

// readviseAtWidth answers the incremental-readvise follow-up question (the
// same first-budget → grown-budget transition IncrementalReadvise measures)
// on a fresh designer bounded to the given sweep width, returning the
// advised design's index keys, the report totals, and the warm ReAdvise
// latency.
func (e *Env) readviseAtWidth(workers int) (keys []string, baseTotal, newTotal, ns float64, err error) {
	ctx := context.Background()
	d, err := e.FreshDesigner()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	d.SetWorkers(workers)
	fw, err := e.FacadeWorkload(d)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	footprint := e.CandidateFootprint()
	firstOpts := designer.AdviceOptions{StorageBudgetPages: footprint / 2}
	grownOpts := designer.AdviceOptions{StorageBudgetPages: footprint * 65 / 100}
	sess := d.NewDesignSession()
	if _, err := sess.Advise(ctx, fw, firstOpts); err != nil {
		return nil, 0, 0, 0, err
	}
	start := time.Now()
	adv, _, err := sess.ReAdvise(ctx, fw, grownOpts)
	ns = float64(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, 0, 0, 0, err
	}
	keys = make([]string, len(adv.Indexes))
	for i, ix := range adv.Indexes {
		keys[i] = ix.Key()
	}
	return keys, adv.Report.BaseTotal, adv.Report.NewTotal, ns, nil
}

// costParity compares a cost vector against the serial reference: exact
// float64 equality per element, plus the maximum absolute difference.
func costParity(ref, costs []float64) (exact bool, maxDiff float64) {
	if len(ref) != len(costs) {
		return false, 0
	}
	exact = true
	for i := range ref {
		if costs[i] != ref[i] {
			exact = false
		}
		d := costs[i] - ref[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	return exact, maxDiff
}

// WhatIfDemoConfig builds Scenario 1's demo design: two composite photoobj
// indexes plus the specobj join key.
func (e *Env) WhatIfDemoConfig() (*catalog.Configuration, error) {
	s := e.Eng.Pin().Session()
	cfg := catalog.NewConfiguration()
	for _, spec := range [][]string{{"ra", "dec"}, {"type", "psfmag_r"}} {
		ix, err := s.HypotheticalIndex("photoobj", spec...)
		if err != nil {
			return nil, err
		}
		cfg = cfg.WithIndex(ix)
	}
	ix, err := s.HypotheticalIndex("specobj", "bestobjid")
	if err != nil {
		return nil, err
	}
	return cfg.WithIndex(ix), nil
}

// WhatIfBenefit evaluates a hypothetical configuration over the workload
// and returns the workload-level benefit percentage (E4).
func (e *Env) WhatIfBenefit(cfg *catalog.Configuration) (float64, error) {
	rep, err := e.Eng.Pin().Evaluate(context.Background(), e.W, cfg)
	if err != nil {
		return 0, err
	}
	return rep.AvgBenefitPct(), nil
}

// OfflineAdvise runs the full Scenario 2 pipeline (indexes + partitions +
// interactions) on a fresh designer and returns the advised improvement
// percentage (E5). adviseNs covers only the Advise call — dataset
// regeneration is excluded from the measurement.
func (e *Env) OfflineAdvise() (improvementPct, adviseNs float64, err error) {
	d, err := e.FreshDesigner()
	if err != nil {
		return 0, 0, err
	}
	fw, err := e.FacadeWorkload(d)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	advice, err := d.Advise(context.Background(), fw, designer.AdviceOptions{Partitions: true, Interactions: true})
	if err != nil {
		return 0, 0, err
	}
	return advice.Report.AvgBenefitPct(), float64(time.Since(start).Nanoseconds()), nil
}

// AutoPartWorkload draws the photometric 4-template workload that motivates
// vertical partitioning (E3/E11), with workload seed = dataset seed + 3.
func (e *Env) AutoPartWorkload() (*workload.Workload, error) {
	return workload.NewWorkloadFrom(e.Store.Schema, e.Seed+3, 12, []workload.Template{
		*workload.TemplateByName("cone_search"),
		*workload.TemplateByName("bright_stars"),
		*workload.TemplateByName("mag_range"),
		*workload.TemplateByName("ra_slice"),
	})
}

// AutoPartImprovement runs partition-only advice (no indexes) over the
// photometric workload and returns the improvement percentage.
func (e *Env) AutoPartImprovement(w *workload.Workload) (float64, error) {
	res, err := autopart.New(e.Eng).AdviseView(context.Background(), e.Eng.Pin(), w, nil, autopart.DefaultOptions())
	if err != nil {
		return 0, err
	}
	return res.Improvement() * 100, nil
}

// SizeModelDistortion compares honest what-if sizing against the size-zero
// model on a selective range scan and returns honest/zero (E12).
func (e *Env) SizeModelDistortion() (float64, error) {
	v := e.Eng.Pin()
	ix, err := v.Session().HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		return 0, err
	}
	cfg := catalog.NewConfiguration().WithIndex(ix)
	stmt, err := sqlparse.ParseSelect("SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 18 AND 20")
	if err != nil {
		return 0, err
	}
	if err := sqlparse.Resolve(stmt, e.Store.Schema); err != nil {
		return 0, err
	}
	honest, err := v.FullCost(stmt, cfg)
	if err != nil {
		return 0, err
	}
	zeroEnv := v.Session().Env().WithConfig(cfg).WithOptions(optimizer.Options{ZeroSizeWhatIf: true})
	zero, err := zeroEnv.Cost(stmt)
	if err != nil {
		return 0, err
	}
	if zero == 0 {
		return 0, errors.New("bench: zero-size cost is 0")
	}
	return honest / zero, nil
}

// AblationImprovement re-enumerates candidates with a per-table cap and
// reports the advised improvement at that width (the candidate-width
// ablation).
func (e *Env) AblationImprovement(maxPerTable int) (improvementPct float64, candidates int, err error) {
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = maxPerTable
	cands := e.Eng.Pin().Session().GenerateCandidates(e.W, opts)
	eng := e.FreshEngine()
	res, err := cophy.New(eng, cands).AdviseView(context.Background(), eng.Pin(), e.W, cophy.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	return res.Improvement() * 100, len(cands), nil
}

// ReadviseResult is the outcome of one incremental re-advise measurement.
type ReadviseResult struct {
	// ColdNs is a cold advise of the tight-budget question on a fresh
	// designer (cold caches) — the latency a non-incremental tool pays for
	// every design question.
	ColdNs float64
	// WarmNs is the same question answered by ReAdvise on a session that
	// already advised once (candidates reused, solver seeded, warm memo).
	WarmNs float64
	// CachedNs is the repeat of an identical question (verbatim cache hit).
	CachedNs float64

	DesignsAgree      bool // warm and cold chose identical index sets
	ReportsAgree      bool // ... with bit-identical report totals
	WarmIndexes       int
	ColdIndexes       int
	RecostedQueries   int // benefit-report delta split of the warm advise
	ReusedQueries     int
	CandidatesReused  bool
	SolverWarmStarted bool

	// Session evaluate delta loop: add one index, re-evaluate.
	EvalRecosted int
	EvalReused   int
	EvalExact    bool // delta report bit-identical to a cold session's
}

// IncrementalReadvise measures the interactive pillar at scale: a design
// session answers a budget-tweaked follow-up question warm and must agree
// exactly with a cold advise of the same question, at a fraction of the
// latency; the session's add-index/re-evaluate loop re-prices only the
// affected queries.
func (e *Env) IncrementalReadvise() (*ReadviseResult, error) {
	ctx := context.Background()
	// The interactive shape: a tight first budget, then "what if I gave it
	// a bit more storage?" — the follow-up whose basis stays feasible and
	// whose advised design moves by a few indexes, not wholesale.
	footprint := e.CandidateFootprint()
	first := footprint / 2
	grown := footprint * 65 / 100

	// Session designer: one cold advise primes the handle, then the warm
	// follow-up.
	d1, err := e.FreshDesigner()
	if err != nil {
		return nil, err
	}
	fw1, err := e.FacadeWorkload(d1)
	if err != nil {
		return nil, err
	}
	firstOpts := designer.AdviceOptions{StorageBudgetPages: first}
	tightOpts := designer.AdviceOptions{StorageBudgetPages: grown}
	sess := d1.NewDesignSession()
	if _, err := sess.Advise(ctx, fw1, firstOpts); err != nil {
		return nil, err
	}
	// Latencies are min-of-reps: single-shot wall clock on a loaded 1-core
	// box is too noisy to carry the cold/warm ratio. Each warm repetition
	// re-primes a fresh session on the same designer (warm engine, cold
	// handle) so it measures the first-question → grown-budget transition,
	// not the cached repeat.
	const reps = 3
	var warm *designer.Advice
	var stats designer.ReadviseStats
	warmNs, err := minNs(reps, func() (time.Duration, error) {
		s := d1.NewDesignSession()
		if _, err := s.Advise(ctx, fw1, firstOpts); err != nil {
			return 0, err
		}
		sess = s
		start := time.Now()
		var err error
		warm, stats, err = s.ReAdvise(ctx, fw1, tightOpts)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	cachedNs, err := minNs(reps, func() (time.Duration, error) {
		start := time.Now()
		_, _, err := sess.ReAdvise(ctx, fw1, tightOpts)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}

	// Cold reference: a fresh designer (cold INUM cache, no handle) asked
	// the grown-budget question directly — what every re-advise cost before
	// the incremental pipeline existed.
	var cold *designer.Advice
	coldNs, err := minNs(2, func() (time.Duration, error) {
		d2, err := e.FreshDesigner()
		if err != nil {
			return 0, err
		}
		fw2, err := e.FacadeWorkload(d2)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		cold, err = d2.Advise(ctx, fw2, tightOpts)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}

	out := &ReadviseResult{
		ColdNs: coldNs, WarmNs: warmNs, CachedNs: cachedNs,
		WarmIndexes: len(warm.Indexes), ColdIndexes: len(cold.Indexes),
		RecostedQueries: stats.RecostedQueries, ReusedQueries: stats.ReusedQueries,
		CandidatesReused: stats.CandidatesReused, SolverWarmStarted: stats.SolverWarmStarted,
	}
	out.DesignsAgree = len(warm.Indexes) == len(cold.Indexes)
	if out.DesignsAgree {
		for i := range warm.Indexes {
			if warm.Indexes[i].Key() != cold.Indexes[i].Key() {
				out.DesignsAgree = false
				break
			}
		}
	}
	out.ReportsAgree = warm.Report.BaseTotal == cold.Report.BaseTotal &&
		warm.Report.NewTotal == cold.Report.NewTotal

	// The session evaluate delta loop: evaluate, add one index, evaluate
	// again; only queries on the touched table may be re-priced, and the
	// numbers must match a cold session evaluating the same design.
	if _, err := sess.Evaluate(ctx, fw1); err != nil {
		return nil, err
	}
	if _, err := sess.AddIndex("specobj", "z"); err != nil {
		return nil, err
	}
	deltaRep, err := sess.Evaluate(ctx, fw1)
	if err != nil {
		return nil, err
	}
	out.EvalRecosted, out.EvalReused = sess.LastEvaluateDelta()
	coldSess := d1.NewDesignSession()
	if _, err := coldSess.AddIndex("specobj", "z"); err != nil {
		return nil, err
	}
	coldRep, err := coldSess.Evaluate(ctx, fw1)
	if err != nil {
		return nil, err
	}
	out.EvalExact = deltaRep.BaseTotal == coldRep.BaseTotal && deltaRep.NewTotal == coldRep.NewTotal
	return out, nil
}

// PortabilityResult is the outcome of one cross-backend design comparison.
type PortabilityResult struct {
	NativeKeys        []string
	CalibratedKeys    []string
	NativeImprovement float64 // pct
	CalibImprovement  float64 // pct
	JaccardPct        float64
	// CrossPenaltyPct is the functional-agreement measure: how much worse
	// (in percent) the native-chosen design prices under the calibrated
	// model than the calibrated model's own choice, and vice versa — the
	// maximum of the two directions. Near zero means the designs are
	// interchangeable even where the index sets differ in their tails.
	CrossPenaltyPct  float64
	ReplayMaxAbsDiff float64
	ReplayAgrees     bool
	TraceCalls       int
}

// Portability runs the same greedy design selection under the native and
// calibrated backends and checks a recorded native trace replays exactly —
// the paper's portability claim in executable form: the chosen designs
// should agree across cost models even when absolute costs differ, and a
// trace-driven run needs no live engine at all.
func (e *Env) Portability(budgetPages int64) (*PortabilityResult, error) {
	ctx := context.Background()
	gopts := greedy.Options{StorageBudgetPages: budgetPages, BenefitPerPage: true}

	// Native selection, recorded.
	rec := engine.NewRecorder()
	nativeEng, err := e.FreshEngineWith(engine.BackendSpec{Recorder: rec})
	if err != nil {
		return nil, err
	}
	native := nativeEng.Pin()
	nres, err := greedy.New(e.Cands).Advise(ctx, native, e.W, gopts)
	if err != nil {
		return nil, err
	}

	// Calibrated selection: same candidates, same workload, different cost
	// economy.
	calibEng, err := e.FreshEngineWith(engine.BackendSpec{Kind: engine.BackendCalibrated})
	if err != nil {
		return nil, err
	}
	calib := calibEng.Pin()
	cres, err := greedy.New(e.Cands).Advise(ctx, calib, e.W, gopts)
	if err != nil {
		return nil, err
	}

	// Replay the recorded native calls: the selection must reproduce the
	// native design and every probed cost bit-for-bit.
	trace := rec.Trace()
	replayEng, err := e.FreshEngineWith(engine.BackendSpec{Kind: engine.BackendReplay, Trace: trace})
	if err != nil {
		return nil, err
	}
	replay := replayEng.Pin()
	rres, err := greedy.New(e.Cands).Advise(ctx, replay, e.W, gopts)
	if err != nil {
		return nil, fmt.Errorf("replaying the recorded native selection: %w", err)
	}
	var maxDiff float64
	for _, q := range e.W.Queries {
		want, err := native.QueryCost(q, nil)
		if err != nil {
			return nil, err
		}
		got, err := replay.QueryCost(q, nil)
		if err != nil {
			return nil, err
		}
		if d := got - want; d > maxDiff {
			maxDiff = d
		} else if -d > maxDiff {
			maxDiff = -d
		}
	}

	// Functional agreement: price each backend's chosen design under the
	// OTHER backend and compare with that backend's own optimum. The
	// paper's portability claim is exactly that this penalty stays small
	// even when absolute costs (and greedy tie-breaks in the tail) differ.
	nativeCfg := configOf(nres.Indexes)
	calibCfg := configOf(cres.Indexes)
	nativeUnderCalib, err := calib.WorkloadCost(e.W, nativeCfg)
	if err != nil {
		return nil, err
	}
	calibUnderNative, err := native.WorkloadCost(e.W, calibCfg)
	if err != nil {
		return nil, err
	}
	cross := 0.0
	if cres.Objective > 0 {
		cross = (nativeUnderCalib - cres.Objective) / cres.Objective * 100
	}
	if nres.Objective > 0 {
		if p := (calibUnderNative - nres.Objective) / nres.Objective * 100; p > cross {
			cross = p
		}
	}
	if cross < 0 {
		cross = 0 // a foreign design can beat greedy's own pick; that's agreement
	}

	out := &PortabilityResult{
		NativeKeys:        indexKeys(nres.Indexes),
		CalibratedKeys:    indexKeys(cres.Indexes),
		NativeImprovement: nres.Improvement() * 100,
		CalibImprovement:  cres.Improvement() * 100,
		JaccardPct:        jaccardPct(indexKeys(nres.Indexes), indexKeys(cres.Indexes)),
		CrossPenaltyPct:   cross,
		ReplayMaxAbsDiff:  maxDiff,
		ReplayAgrees:      maxDiff == 0 && equalKeySets(indexKeys(nres.Indexes), indexKeys(rres.Indexes)) && rres.Objective == nres.Objective,
		TraceCalls:        trace.Len(),
	}
	return out, nil
}

// configOf folds an index list into a configuration.
func configOf(ixs []*catalog.Index) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, ix := range ixs {
		cfg = cfg.WithIndex(ix)
	}
	return cfg
}

func indexKeys(ixs []*catalog.Index) []string {
	out := make([]string, 0, len(ixs))
	for _, ix := range ixs {
		out = append(out, ix.Key())
	}
	return out
}

// jaccardPct is the Jaccard similarity of two key sets in percent (100 for
// two empty sets: agreeing on "no indexes" is agreement).
func jaccardPct(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 100
	}
	in := map[string]bool{}
	for _, k := range a {
		in[k] = true
	}
	inter := 0
	union := len(a)
	for _, k := range b {
		if in[k] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union) * 100
}

func equalKeySets(a, b []string) bool { return jaccardPct(a, b) == 100 }

// SolverProblem builds the n-binary knapsack-shaped MIP used by the solver
// scaling benchmark.
func SolverProblem(n int) *lp.Problem {
	p := lp.NewProblem(n)
	for i := 0; i < n; i++ {
		p.Binary[i] = true
		p.Objective[i] = -float64(1 + i%7)
	}
	coefs := map[int]float64{}
	for i := 0; i < n; i++ {
		coefs[i] = float64(1 + (i*3)%5)
	}
	p.AddConstraint(coefs, lp.LE, float64(n))
	return p
}

// SolveOnce solves the scaling MIP once, erroring unless optimal.
func SolveOnce(p *lp.Problem) (nodes int, err error) {
	sol := lp.SolveMIP(context.Background(), p, lp.MIPOptions{})
	if sol.Status != lp.StatusOptimal {
		return 0, fmt.Errorf("bench: MIP status %v", sol.Status)
	}
	return sol.Nodes, nil
}

// minNs runs op reps times and returns the minimum measured duration in
// nanoseconds — the noise-robust estimator for small wall-clock
// measurements on a shared 1-core machine, where a single sample can be
// inflated arbitrarily by scheduling.
func minNs(reps int, op func() (time.Duration, error)) (float64, error) {
	best := time.Duration(-1)
	for i := 0; i < reps; i++ {
		d, err := op()
		if err != nil {
			return 0, err
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()), nil
}

// timeOp measures the average wall-clock nanoseconds of op over `reps`
// repetitions (at least one).
func timeOp(reps int, op func() error) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps), nil
}

// DesignSpaceCell is one profile's measurement in the design_space_width
// experiment: CoPhy's best total workload cost when the candidate space
// holds only secondary indexes, versus the widened space that also admits
// covering projections (INCLUDE columns) and single-table aggregate views.
type DesignSpaceCell struct {
	BaseObjective float64 // index-only optimum (total workload cost)
	WideObjective float64 // widened-space optimum
	BaseIndexes   int     // structures chosen from the index-only space
	WideIndexes   int     // structures chosen from the widened space
	Projections   int     // ... of which covering projections
	AggViews      int     // ... of which aggregate views
	BaseCands     int     // candidate-space sizes
	WideCands     int
	ScheduleSteps int // greedy materialization order over the wide design
}

// DesignSpaceWidth measures what admitting non-index structures buys: the
// named profile's workload is generated from a derived seed (independent of
// the Env's own workload), then CoPhy solves the index-only and widened
// candidate spaces on fresh engines so neither run warms the other's caches.
// The widened selection is scheduled greedily so every chosen structure has
// an explained place in the materialization order.
func (e *Env) DesignSpaceWidth(profile string, numQ int) (*DesignSpaceCell, error) {
	ctx := context.Background()
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	w, err := p.Generate(e.Store.Schema, e.Seed+5, numQ)
	if err != nil {
		return nil, err
	}
	cell := &DesignSpaceCell{}

	baseEng := e.FreshEngine()
	baseView := baseEng.Pin()
	baseCands := baseView.Session().GenerateCandidates(w, whatif.DefaultCandidateOptions())
	baseRes, err := cophy.New(baseEng, baseCands).AdviseView(ctx, baseView, w, cophy.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cell.BaseObjective = baseRes.Objective
	cell.BaseIndexes = len(baseRes.Indexes)
	cell.BaseCands = len(baseCands)

	wopts := whatif.DefaultCandidateOptions()
	wopts.IncludeProjections = true
	wopts.IncludeAggViews = true
	wideEng := e.FreshEngine()
	wideView := wideEng.Pin()
	wideCands := wideView.Session().GenerateCandidates(w, wopts)
	wideRes, err := cophy.New(wideEng, wideCands).AdviseView(ctx, wideView, w, cophy.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cell.WideObjective = wideRes.Objective
	cell.WideIndexes = len(wideRes.Indexes)
	cell.WideCands = len(wideCands)
	for _, ix := range wideRes.Indexes {
		switch ix.Kind {
		case catalog.KindProjection:
			cell.Projections++
		case catalog.KindAggView:
			cell.AggViews++
		}
	}
	if len(wideRes.Indexes) > 0 {
		sched, err := schedule.New(wideEng).GreedyView(ctx, wideView, w, wideRes.Indexes)
		if err != nil {
			return nil, err
		}
		cell.ScheduleSteps = len(sched.Steps)
	}
	return cell, nil
}
