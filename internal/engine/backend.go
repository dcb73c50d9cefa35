// Cost backends — the "portable" pillar of the paper's title. The design
// algorithms (CoPhy, COLT, AutoPart, the interaction analyzer) never talk
// to an optimizer directly: every costing call flows through the engine,
// and the engine delegates to a pluggable CostBackend. Swapping the backend
// swaps the cost model under the whole designer without touching a single
// advisor.
//
// Three backends ship in-tree:
//
//   - native: the built-in optimizer + INUM cache pipeline (the default).
//   - calibrated: the same analytical machinery running on PostgreSQL-style
//     cost constants loaded from a JSON calibration file — the stand-in for
//     "another engine's economy" (SSD defaults built in).
//   - replay: serves recorded costing calls from a trace, enabling
//     trace-driven portability tests without any live engine. Record mode
//     (BackendSpec.Recorder) wraps any backend and dumps its calls.
//
// Backend state is generation-scoped: every engine snapshot builds a fresh
// backend instance (own INUM cache), so swapping backends — engine-wide via
// SetBackend or per-session via PinBackend — can never serve plan costs
// cached under a different backend.
package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Backend kinds.
const (
	BackendNative     = "native"
	BackendCalibrated = "calibrated"
	BackendReplay     = "replay"
)

// BackendKinds lists the selectable backend kinds in canonical order.
func BackendKinds() []string { return []string{BackendNative, BackendCalibrated, BackendReplay} }

// CostBackend is one pluggable what-if costing implementation. The engine
// resolves nil configurations to the generation's base before calling a
// backend, so implementations always see a concrete configuration.
//
// Backends are built per engine generation and discarded on invalidation;
// they may cache freely (the native backend's INUM cache) without any
// cross-generation or cross-backend aliasing concern.
type CostBackend interface {
	// Kind identifies the backend ("native", "calibrated", "replay").
	Kind() string
	// Describe renders the backend's parameters for humans (Describe
	// output, serve /schema).
	Describe() string
	// Params exposes the cost constants the backend prices with; consumers
	// like the materialization scheduler use them for build-cost models.
	Params() optimizer.CostParams
	// Prepare primes per-query state (plan templates) for a candidate set.
	Prepare(id string, stmt *sqlparse.SelectStmt, candidates []*catalog.Index) error
	// QueryCost prices one query under a configuration through the
	// backend's cached (INUM-style) path.
	QueryCost(q workload.Query, cfg *catalog.Configuration) (float64, error)
	// StmtCost prices a statement with the backend's reference model (the
	// full optimizer for analytical backends), bypassing the cached path.
	StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error)
	// CacheStats reports full-optimization and cached-costing counters.
	CacheStats() (fullOpts, cachedCostings int64)
	// EvictPrefix drops per-query cached state by query-ID prefix.
	EvictPrefix(prefix string) int
}

// BackendInfo is the descriptive form of the active backend.
type BackendInfo struct {
	Kind        string
	Description string
}

// BackendSpec selects and parameterizes the cost backend an engine builds
// for every generation. The zero value means the native backend.
type BackendSpec struct {
	// Kind is "native" (default when empty), "calibrated", or "replay".
	Kind string
	// Calibration supplies the calibrated backend's cost constants;
	// nil means DefaultCalibration().
	Calibration *Calibration
	// Trace backs the replay backend. Required when Kind is "replay".
	Trace *Trace
	// Recorder, when set, wraps the backend so every costing call is
	// captured for a later replay. Works with any kind (recording a replay
	// re-dumps the served calls).
	Recorder *Recorder
}

// kind resolves the spec's kind with the native default.
func (spec BackendSpec) kind() string {
	if spec.Kind == "" {
		return BackendNative
	}
	return spec.Kind
}

// Validate checks the spec without building anything. Parameters that the
// selected kind would ignore are rejected rather than dropped: a
// calibration attached to a native backend (or a trace attached to an
// analytical one) is a misconfiguration the caller must hear about, not a
// silently different cost model.
func (spec BackendSpec) Validate() error {
	switch spec.kind() {
	case BackendNative:
		if spec.Calibration != nil {
			return fmt.Errorf("engine: calibration given but backend is %q (want calibrated)", spec.kind())
		}
		if spec.Trace != nil {
			return fmt.Errorf("engine: trace given but backend is %q (want replay)", spec.kind())
		}
		return nil
	case BackendCalibrated:
		if spec.Trace != nil {
			return fmt.Errorf("engine: trace given but backend is %q (want replay)", spec.kind())
		}
		if spec.Calibration != nil {
			return spec.Calibration.Validate()
		}
		return nil
	case BackendReplay:
		if spec.Calibration != nil {
			return fmt.Errorf("engine: calibration given but backend is %q (want calibrated)", spec.kind())
		}
		if spec.Trace == nil {
			return fmt.Errorf("engine: replay backend needs a trace")
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown backend kind %q (have %v)", spec.Kind, BackendKinds())
	}
}

// build assembles the backend for one generation. baseEnv is the
// generation's native optimizer environment (schema + stats + base config +
// join switches). The returned env is the one the generation should plan
// against (Optimize/Explain, what-if sessions): the calibrated backend
// substitutes its cost constants, the replay backend keeps the native env
// (plan rendering stays available even when costing is trace-served).
func (spec BackendSpec) build(baseEnv *optimizer.Env) (CostBackend, *optimizer.Env, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	var backend CostBackend
	env := baseEnv
	switch spec.kind() {
	case BackendNative:
		backend = &envBackend{
			kind:  BackendNative,
			desc:  "built-in optimizer + INUM cache (default cost constants)",
			env:   env,
			cache: inum.New(env),
		}
	case BackendCalibrated:
		cal := spec.Calibration
		if cal == nil {
			cal = DefaultCalibration()
		}
		cenv := *baseEnv
		cenv.Params = cal.Params()
		env = &cenv
		backend = &envBackend{
			kind: BackendCalibrated,
			desc: fmt.Sprintf("analytical model calibrated as %q (seq=%g random=%g cpu_tuple=%g)",
				cal.Name, cal.SeqPageCost, cal.RandomPageCost, cal.CPUTupleCost),
			env:   env,
			cache: inum.New(env),
		}
	case BackendReplay:
		backend = &replayBackend{trace: spec.Trace, params: baseEnv.Params}
	}
	if spec.Recorder != nil {
		backend = &recordingBackend{inner: backend, rec: spec.Recorder}
	}
	return backend, env, nil
}

// ---------------------------------------------------------------------------
// envBackend: the optimizer-environment-backed backends (native, calibrated).
// ---------------------------------------------------------------------------

// envBackend prices through an optimizer environment and an INUM cache —
// the pipeline PRs 1–3 built, now one implementation behind the seam. The
// native and calibrated backends differ only in the environment's cost
// constants.
type envBackend struct {
	kind  string
	desc  string
	env   *optimizer.Env
	cache *inum.Cache
}

func (b *envBackend) Kind() string                  { return b.kind }
func (b *envBackend) Describe() string              { return b.desc }
func (b *envBackend) Params() optimizer.CostParams  { return b.env.Params }
func (b *envBackend) CacheStats() (int64, int64)    { return b.cache.Stats() }
func (b *envBackend) EvictPrefix(prefix string) int { return b.cache.EvictPrefix(prefix) }

func (b *envBackend) Prepare(id string, stmt *sqlparse.SelectStmt, candidates []*catalog.Index) error {
	_, err := b.cache.Prepare(id, stmt, candidates)
	return err
}

func (b *envBackend) QueryCost(q workload.Query, cfg *catalog.Configuration) (float64, error) {
	cq, err := b.cache.Prepare(q.ID, q.Stmt, nil)
	if err != nil {
		return 0, err
	}
	return b.cache.CostFor(cq, cfg)
}

func (b *envBackend) StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	return b.env.WithConfig(cfg).Cost(stmt)
}

// ---------------------------------------------------------------------------
// replayBackend: trace-served costing, no live optimizer needed.
// ---------------------------------------------------------------------------

type replayBackend struct {
	trace  *Trace
	params optimizer.CostParams
	served atomic.Int64
}

func (b *replayBackend) Kind() string { return BackendReplay }
func (b *replayBackend) Describe() string {
	return fmt.Sprintf("replaying %d recorded %s calls", b.trace.Len(), b.trace.Backend)
}
func (b *replayBackend) Params() optimizer.CostParams { return b.params }

// Prepare is a no-op: the trace holds finished costs, not plan templates.
func (b *replayBackend) Prepare(string, *sqlparse.SelectStmt, []*catalog.Index) error { return nil }

func (b *replayBackend) QueryCost(q workload.Query, cfg *catalog.Configuration) (float64, error) {
	return b.lookup(opQuery, q.Stmt, cfg)
}

func (b *replayBackend) StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	return b.lookup(opStmt, stmt, cfg)
}

func (b *replayBackend) lookup(op string, stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	sql := stmt.String()
	sig := configSignature(cfg)
	if cost, ok := b.trace.lookup(op, sql, sig); ok {
		b.served.Add(1)
		return cost, nil
	}
	return 0, fmt.Errorf("engine: replay: no recorded %s cost for %q under config %q — re-record the trace with this workload and configuration space", op, sql, sig)
}

// CacheStats reports every served call as a cached costing (no full
// optimizations ever happen under replay).
func (b *replayBackend) CacheStats() (int64, int64) { return 0, b.served.Load() }

func (b *replayBackend) EvictPrefix(string) int { return 0 }

// ---------------------------------------------------------------------------
// recordingBackend: transparent call capture around any backend.
// ---------------------------------------------------------------------------

type recordingBackend struct {
	inner CostBackend
	rec   *Recorder
}

func (b *recordingBackend) Kind() string                  { return b.inner.Kind() }
func (b *recordingBackend) Describe() string              { return b.inner.Describe() + " [recording]" }
func (b *recordingBackend) Params() optimizer.CostParams  { return b.inner.Params() }
func (b *recordingBackend) CacheStats() (int64, int64)    { return b.inner.CacheStats() }
func (b *recordingBackend) EvictPrefix(prefix string) int { return b.inner.EvictPrefix(prefix) }

func (b *recordingBackend) Prepare(id string, stmt *sqlparse.SelectStmt, candidates []*catalog.Index) error {
	return b.inner.Prepare(id, stmt, candidates)
}

func (b *recordingBackend) QueryCost(q workload.Query, cfg *catalog.Configuration) (float64, error) {
	cost, err := b.inner.QueryCost(q, cfg)
	if err == nil {
		b.rec.record(b.inner.Kind(), opQuery, q.Stmt.String(), configSignature(cfg), cost)
	}
	return cost, err
}

func (b *recordingBackend) StmtCost(stmt *sqlparse.SelectStmt, cfg *catalog.Configuration) (float64, error) {
	cost, err := b.inner.StmtCost(stmt, cfg)
	if err == nil {
		b.rec.record(b.inner.Kind(), opStmt, stmt.String(), configSignature(cfg), cost)
	}
	return cost, err
}
