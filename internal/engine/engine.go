// Package engine is the single what-if costing layer every designer
// component plans through. It owns the triple that used to be wired by hand
// in each advisor — the optimizer environment (schema + statistics + cost
// parameters), the INUM cost cache (§3.2.1), and the what-if session
// (§3.1) — behind one concurrency-safe handle with explicit configuration
// versioning: when the physical design changes (indexes are materialized,
// join controls flip), the engine rebuilds all three members atomically and
// bumps its version, so no consumer can keep pricing against a stale cache.
//
// Costing itself is pluggable (backend.go): the engine delegates every
// query/statement pricing call to a CostBackend — native (built-in
// optimizer + INUM), calibrated (JSON-loaded cost constants), or replay
// (trace-served) — which is what makes the designer portable across cost
// models. Backend state is rebuilt per generation, so backend swaps are
// invalidations like any other reconfiguration.
//
// Engine is lifecycle only: it owns the current generation and swaps it
// (SetBaseConfig, SetJoinControl, SetBackend, SetStats, Invalidate), and
// reports telemetry (CacheStats, Workers). Every costing, planning, and
// sizing call goes through a View — one pinned generation obtained with Pin
// or PinBackend — so a consumer that makes several calls for one logical
// operation cannot read them from different generations. View carries the
// bounded worker-pool sweep primitives (SweepConfigs, SweepCandidates,
// SweepQueryConfigs, Evaluate, EvaluateDelta) that advisors use to price
// many hypothetical designs in parallel — the hot path of CoPhy's atom
// enumeration, the interaction analyzer's lattice walks, and greedy
// candidate selection. Hypothetical structures and candidates come from
// the view's what-if session (View.Session). Sweep results are
// deterministic: a parallel sweep returns bit-for-bit the costs a serial
// loop would.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// snapshot is one immutable generation of the costing state. Consumers
// that need multiple consistent calls grab a snapshot once; the engine
// never mutates a published snapshot, only swaps in a new one.
type snapshot struct {
	version uint64
	base    *catalog.Configuration
	stats   *stats.Catalog
	// env is the generation's planning environment: the backend's when it
	// carries cost constants (native, calibrated), the native one otherwise
	// (replay still renders plans through the built-in optimizer).
	env     *optimizer.Env
	backend CostBackend
	session *whatif.Session

	// prepMu guards prepared: the set of workload fingerprints whose
	// queries all have backend entries in this generation (the prepareAll
	// fast path).
	prepMu   sync.Mutex
	prepared map[string]bool
}

// preparedFor reports whether a workload fingerprint was fully prepared.
func (s *snapshot) preparedFor(fp string) bool {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	return s.prepared[fp]
}

// markPrepared records a fully prepared workload fingerprint.
func (s *snapshot) markPrepared(fp string) {
	s.prepMu.Lock()
	s.prepared[fp] = true
	s.prepMu.Unlock()
}

// Engine is the shared, concurrency-safe what-if costing handle.
type Engine struct {
	schema *catalog.Schema
	stats  *stats.Catalog

	mu   sync.RWMutex
	snap *snapshot
	opts optimizer.Options
	spec BackendSpec

	// workers bounds sweep parallelism; 0 means GOMAXPROCS.
	workers int
}

// New creates an engine over a schema/statistics snapshot and a base
// (currently materialized) configuration, costing through the native
// backend. base may be nil for "no physical design".
func New(schema *catalog.Schema, st *stats.Catalog, base *catalog.Configuration) *Engine {
	e, err := NewWithBackend(schema, st, base, BackendSpec{})
	if err != nil {
		// The zero spec is the native backend, which cannot fail to build.
		panic(err)
	}
	return e
}

// NewWithBackend creates an engine costing through the given backend spec.
func NewWithBackend(schema *catalog.Schema, st *stats.Catalog, base *catalog.Configuration, spec BackendSpec) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{schema: schema, stats: st, spec: spec}
	snap, err := e.build(base, optimizer.Options{}, spec, 1)
	if err != nil {
		return nil, err
	}
	e.snap = snap
	return e, nil
}

// build assembles a fresh generation of the costing state.
func (e *Engine) build(base *catalog.Configuration, opts optimizer.Options, spec BackendSpec, version uint64) (*snapshot, error) {
	if base == nil {
		base = catalog.NewConfiguration()
	}
	nativeEnv := optimizer.NewEnv(e.schema, e.stats, base).WithOptions(opts)
	backend, env, err := spec.build(nativeEnv)
	if err != nil {
		return nil, err
	}
	return &snapshot{
		version:  version,
		base:     base,
		stats:    e.stats,
		env:      env,
		backend:  backend,
		session:  whatif.NewSessionFromEnv(env, base),
		prepared: make(map[string]bool),
	}, nil
}

// rebuild swaps in a new generation; callers hold e.mu and pass a spec that
// already validated (the stored one, or a fresh one vetted by the caller).
func (e *Engine) rebuild(base *catalog.Configuration, opts optimizer.Options, spec BackendSpec, version uint64) {
	snap, err := e.build(base, opts, spec, version)
	if err != nil {
		// Only reachable with a spec that validated but failed to build —
		// the current backend kinds cannot do that.
		panic(err)
	}
	e.snap = snap
}

// snapshot returns the current generation under a read lock.
func (e *Engine) snapshot() *snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snap
}

// View is one pinned configuration generation of the engine. An advisor
// run spans many costing calls (prepare, base costs, many sweeps); pinning
// a view at the start guarantees every one of them prices against the same
// generation — environment, backend, and session — even if the engine is
// reconfigured concurrently: the run stays internally consistent, and the
// next run picks up the new generation.
type View struct {
	e *Engine
	s *snapshot
}

// Pin captures the current generation. Costing methods on the returned
// view are unaffected by subsequent SetBaseConfig/SetJoinControl/SetBackend
// calls.
func (e *Engine) Pin() *View { return &View{e: e, s: e.snapshot()} }

// PinBackend captures the current generation but substitutes a different
// cost backend built against the same base configuration and statistics —
// the per-session backend surface: one HTTP design session can price
// through the calibrated model while the engine (and every other consumer)
// stays on its own backend. The derived backend has fresh per-generation
// state (its own INUM cache), so per-session backends can never alias the
// engine's cached plan costs.
func (e *Engine) PinBackend(spec BackendSpec) (*View, error) {
	// One read-lock acquisition for snapshot + switches, so a concurrent
	// SetJoinControl cannot pair new options with an old generation.
	e.mu.RLock()
	cur, opts := e.snap, e.opts
	e.mu.RUnlock()
	nativeEnv := optimizer.NewEnv(e.schema, cur.stats, cur.base).WithOptions(opts)
	backend, env, err := spec.build(nativeEnv)
	if err != nil {
		return nil, err
	}
	derived := &snapshot{
		version:  cur.version,
		base:     cur.base,
		stats:    cur.stats,
		env:      env,
		backend:  backend,
		session:  whatif.NewSessionFromEnv(env, cur.base),
		prepared: make(map[string]bool),
	}
	return &View{e: e, s: derived}, nil
}

// Version reports the pinned generation. The engine's generation increments
// every time the base configuration, the optimizer switches, the
// statistics, or the cost backend change.
func (v *View) Version() uint64 { return v.s.version }

// Session returns the pinned generation's what-if session.
func (v *View) Session() *whatif.Session { return v.s.session }

// Stats returns the pinned generation's statistics catalog.
func (v *View) Stats() *stats.Catalog { return v.s.stats }

// Params returns the pinned generation's cost parameters (the backend's).
func (v *View) Params() optimizer.CostParams { return v.s.backend.Params() }

// Backend describes the pinned generation's cost backend.
func (v *View) Backend() BackendInfo {
	return BackendInfo{Kind: v.s.backend.Kind(), Description: v.s.backend.Describe()}
}

// SessionWith returns a throwaway what-if session over the pinned base
// configuration, statistics, and backend cost constants with the given
// optimizer switches applied — per-session join steering that cannot leak
// into other consumers' costing.
func (v *View) SessionWith(opts optimizer.Options) *whatif.Session {
	return whatif.NewSessionFromEnv(v.s.env.WithOptions(opts), v.s.base)
}

// Schema exposes the logical schema.
func (e *Engine) Schema() *catalog.Schema { return e.schema }

// SetWorkers bounds sweep parallelism (0 restores the GOMAXPROCS default).
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.workers = n
}

// Workers reports the effective sweep pool width: the SetWorkers bound, or
// GOMAXPROCS when unbounded. Bench result metadata records this.
func (e *Engine) Workers() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// SetBaseConfig swaps the base configuration and invalidates every cached
// artifact: environment, what-if session, and — crucially — the backend,
// whose memoized access costs and plan templates were computed for the old
// generation. Designer.Materialize calls this after physically building
// indexes.
func (e *Engine) SetBaseConfig(base *catalog.Configuration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebuild(base, e.opts, e.spec, e.snap.version+1)
}

// SetJoinControl flips the what-if join component's optimizer switches for
// all subsequent costings, engine-wide. Cached plan templates embed join
// choices, so the backend is rebuilt alongside. For join steering scoped
// to one exploration (a design session) use View.SessionWith instead.
func (e *Engine) SetJoinControl(opts optimizer.Options) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.opts = opts
	e.rebuild(e.snap.base, opts, e.spec, e.snap.version+1)
}

// SetBackend swaps the cost backend engine-wide and bumps the generation:
// the old backend's cached plan costs are discarded with its snapshot, so a
// backend swap can never serve costs computed under the previous model.
// Pinned views keep pricing through the backend they were pinned with.
func (e *Engine) SetBackend(spec BackendSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	snap, err := e.build(e.snap.base, e.opts, spec, e.snap.version+1)
	if err != nil {
		return err
	}
	e.spec = spec
	e.snap = snap
	return nil
}

// SetStats swaps the statistics catalog (after a re-ANALYZE) together with
// the base configuration and invalidates the generation. Old generations
// keep the old catalog: statistics are copy-on-write, so pinned views stay
// internally consistent while new work sees the fresh numbers.
func (e *Engine) SetStats(st *stats.Catalog, base *catalog.Configuration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = st
	e.rebuild(base, e.opts, e.spec, e.snap.version+1)
}

// Invalidate rebuilds the current generation in place (same base
// configuration, fresh backend state). Use after external statistics
// changes.
func (e *Engine) Invalidate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebuild(e.snap.base, e.opts, e.spec, e.snap.version+1)
}

// resolve substitutes the snapshot base configuration for nil.
func (s *snapshot) resolve(cfg *catalog.Configuration) *catalog.Configuration {
	if cfg != nil {
		return cfg
	}
	return s.base
}

// Prepare primes the pinned generation's backend for every workload query.
// Queries are prepared in parallel over the sweep pool; already-prepared
// queries are deduplicated by the backend's idempotency. The workload's
// fingerprint is recorded so subsequent sweeps skip re-preparing it.
func (v *View) Prepare(ctx context.Context, w *workload.Workload, candidates []*catalog.Index) error {
	err := v.e.sweep(ctx, len(w.Queries), func(i int) error {
		q := w.Queries[i]
		return v.s.backend.Prepare(q.ID, q.Stmt, candidates)
	})
	if err != nil {
		return err
	}
	v.s.markPrepared(w.Fingerprint())
	return nil
}

// PrepareQuery primes the pinned backend for one query.
func (v *View) PrepareQuery(q workload.Query, candidates []*catalog.Index) ([]string, error) {
	if err := v.s.backend.Prepare(q.ID, q.Stmt, candidates); err != nil {
		return nil, err
	}
	tables := make([]string, 0, len(q.Stmt.From))
	for _, ref := range q.Stmt.From {
		t := v.e.schema.Table(ref.Name)
		if t == nil {
			return nil, fmt.Errorf("engine: %s: unknown table %q", q.ID, ref.Name)
		}
		tables = append(tables, strings.ToLower(t.Name))
	}
	return tables, nil
}

// QueryCost prices one query against the pinned generation (nil = the
// pinned base configuration).
func (v *View) QueryCost(q workload.Query, cfg *catalog.Configuration) (float64, error) {
	return v.s.backend.QueryCost(q, v.s.resolve(cfg))
}

// WorkloadCost sums weighted backend query costs against the pinned
// generation.
func (v *View) WorkloadCost(w *workload.Workload, cfg *catalog.Configuration) (float64, error) {
	return v.s.workloadCost(w, v.s.resolve(cfg))
}

func (s *snapshot) workloadCost(w *workload.Workload, cfg *catalog.Configuration) (float64, error) {
	var total float64
	for _, q := range w.Queries {
		c, err := s.backend.QueryCost(q, cfg)
		if err != nil {
			return 0, fmt.Errorf("engine: %s: %w", q.ID, err)
		}
		total += c * q.Weight
	}
	return total, nil
}

// FullCost prices a statement with the backend's reference model against
// the pinned generation.
func (v *View) FullCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	return v.s.backend.StmtCost(stmt, v.s.resolve(cfg))
}

// Optimize plans a statement under a configuration (nil = the pinned base)
// and returns the full plan tree. Planning always runs through the pinned
// generation's optimizer environment — under the replay backend plans are
// rendered with the built-in optimizer while costs come from the trace.
func (v *View) Optimize(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (*optimizer.Plan, error) {
	return v.s.env.WithConfig(v.s.resolve(cfg)).Optimize(stmt)
}

// CacheStats reports the current generation's full-optimization and cached
// costing counters (the E8 telemetry).
func (e *Engine) CacheStats() (fullOpts, cachedCostings int64) {
	return e.snapshot().backend.CacheStats()
}

// EvictPrefix drops backend entries whose query ID starts with prefix from
// the current generation, returning the count. Long-lived engines shared by
// transient components (online tuners) use this to bound cache growth.
func (e *Engine) EvictPrefix(prefix string) int {
	return e.snapshot().backend.EvictPrefix(prefix)
}

// workerCount resolves the sweep pool size for n jobs.
func (e *Engine) workerCount(n int) int {
	e.mu.RLock()
	workers := e.workers
	e.mu.RUnlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
