// Package bench is the shared experiment harness behind the repository's
// performance trajectory. It runs the paper's experiment suite — INUM vs
// full-optimizer speedup (E8), CoPhy vs greedy design quality across
// storage budgets (E7), COLT convergence under workload drift (E6),
// interaction-aware schedule quality (E2/E9), and engine parallel-sweep
// scaling — over a matrix of dataset sizes, seeds, and workload profiles,
// and emits one schema-versioned result document (BENCH_<label>.json) per
// run. The `dbdesigner bench` subcommand and every Benchmark* in
// bench_test.go are thin wrappers over this package, so the numbers CI
// records and the numbers `go test -bench` prints come from the same code.
package bench

import (
	"context"
	"fmt"
	"sync"

	"repro/designer"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Env is one cell of the experiment matrix: a generated dataset, a workload
// drawn from one profile, the candidate index set, and the shared costing
// engine (pre-warmed INUM cache). Building an Env is the expensive part of
// every experiment; the harness and the Go benchmarks share built Envs
// through CachedEnv.
type Env struct {
	SizeName string
	Seed     int64
	Profile  string
	NumQ     int
	// Backend is the cost-backend kind the Env's engine prices through
	// ("native" or "calibrated"; replay appears only inside the
	// backend_portability experiment).
	Backend string

	Store *storage.Store
	W     *workload.Workload
	Cands []*catalog.Index
	Eng   *engine.Engine

	// backendSpec rebuilds engines with the Env's backend (FreshEngine).
	backendSpec engine.BackendSpec

	// defaultWorkers is the sweep width experiments restore after a
	// width-controlled measurement (0 = the engine's GOMAXPROCS default).
	defaultWorkers int

	// advised caches the default CoPhy recommendation (used by the
	// interaction and schedule experiments, which analyze an advised set).
	advisedOnce sync.Once
	advised     []*catalog.Index
	advisedErr  error
}

// NewEnv generates the dataset (dataset seed = seed), draws NumQ queries
// from the named workload profile (workload seed = seed+1, so dataset and
// workload randomness stay independent), enumerates candidates, and warms
// the native backend's INUM cache.
func NewEnv(sizeName string, seed int64, profile string, numQ int) (*Env, error) {
	return NewEnvWith(sizeName, seed, profile, numQ, engine.BackendSpec{})
}

// NewEnvWith is NewEnv with an explicit cost-backend selection — the whole
// experiment suite runs unchanged on any backend, which is itself the
// portability claim.
func NewEnvWith(sizeName string, seed int64, profile string, numQ int, spec engine.BackendSpec) (*Env, error) {
	size, err := workload.SizeByName(sizeName)
	if err != nil {
		return nil, err
	}
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	store, err := workload.Generate(size, seed)
	if err != nil {
		return nil, err
	}
	w, err := p.Generate(store.Schema, seed+1, numQ)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewWithBackend(store.Schema, store.Stats, store.MaterializedConfiguration(), spec)
	if err != nil {
		return nil, err
	}
	v := eng.Pin()
	cands := v.Session().GenerateCandidates(w, whatif.DefaultCandidateOptions())
	if err := v.Prepare(context.Background(), w, cands); err != nil {
		return nil, err
	}
	return &Env{
		SizeName:    sizeName,
		Seed:        seed,
		Profile:     profile,
		NumQ:        numQ,
		Backend:     v.Backend().Kind,
		Store:       store,
		W:           w,
		Cands:       cands,
		Eng:         eng,
		backendSpec: spec,
	}, nil
}

// SetDefaultWorkers bounds the Env engine's sweep pool (0 restores the
// GOMAXPROCS default) and remembers the width so width-sweeping experiments
// (parallel_sweep, parallel_scaling) restore it rather than the global
// default.
func (e *Env) SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	e.defaultWorkers = n
	e.Eng.SetWorkers(n)
}

var (
	envMu    sync.Mutex
	envCache = map[string]*Env{}
)

// CachedEnv returns a process-wide shared Env for the given matrix cell,
// building it on first use. Benchmarks use this so thirteen Benchmark*
// functions pay for one dataset generation, exactly like the old package
// fixture did.
func CachedEnv(sizeName string, seed int64, profile string, numQ int) (*Env, error) {
	key := fmt.Sprintf("%s/%d/%s/%d", sizeName, seed, profile, numQ)
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[key]; ok {
		return e, nil
	}
	e, err := NewEnv(sizeName, seed, profile, numQ)
	if err != nil {
		return nil, err
	}
	envCache[key] = e
	return e, nil
}

// FreshDesigner generates an unshared copy of the Env's dataset and opens a
// facade designer over it with the Env's backend — for experiments that
// exercise the public v2 pipeline (offline advisors that build indexes) and
// must not poison the shared engine's caches.
func (e *Env) FreshDesigner() (*designer.Designer, error) {
	opts := []designer.Option{}
	if spec := e.designerSpec(); !spec.IsNative() {
		opts = append(opts, designer.WithBackend(spec))
	}
	return designer.OpenSDSS(e.SizeName, e.Seed, opts...)
}

// designerSpec mirrors the Env's engine backend spec into the facade form.
func (e *Env) designerSpec() designer.BackendSpec {
	spec := designer.BackendSpec{Kind: e.backendSpec.Kind}
	if cal := e.backendSpec.Calibration; cal != nil {
		spec.Calibration = &designer.CalibrationParams{
			Name:                    cal.Name,
			SeqPageCost:             cal.SeqPageCost,
			RandomPageCost:          cal.RandomPageCost,
			CPUTupleCost:            cal.CPUTupleCost,
			CPUIndexTupleCost:       cal.CPUIndexTupleCost,
			CPUOperatorCost:         cal.CPUOperatorCost,
			EffectiveCacheSizePages: cal.EffectiveCacheSizePages,
		}
	}
	return spec
}

// FacadeWorkload converts the Env's internal workload into the public
// facade representation by re-parsing each query through the designer,
// preserving IDs and weights.
func (e *Env) FacadeWorkload(d *designer.Designer) (*designer.Workload, error) {
	qs := make([]designer.Query, 0, len(e.W.Queries))
	for _, q := range e.W.Queries {
		fq, err := d.ParseQuery(q.ID, q.SQL)
		if err != nil {
			return nil, err
		}
		qs = append(qs, fq.WithWeight(q.Weight))
	}
	return designer.NewWorkload(qs...)
}

// FreshEngine builds an unshared, cold-cache engine over the Env's dataset
// with the Env's backend (for cold-path measurements like the pipeline
// calls-avoided ratio).
func (e *Env) FreshEngine() *engine.Engine {
	eng, err := engine.NewWithBackend(e.Store.Schema, e.Store.Stats, nil, e.backendSpec)
	if err != nil {
		// The spec already built the Env's own engine once.
		panic(err)
	}
	return eng
}

// FreshEngineWith builds an unshared, cold-cache engine over the Env's
// dataset with an explicit backend — the portability experiment's way of
// running the same selection under several cost models.
func (e *Env) FreshEngineWith(spec engine.BackendSpec) (*engine.Engine, error) {
	return engine.NewWithBackend(e.Store.Schema, e.Store.Stats, nil, spec)
}

// Advised returns the default CoPhy recommendation over the Env's workload,
// computed once and shared (the interaction and schedule experiments both
// start from "the advised set").
func (e *Env) Advised() ([]*catalog.Index, error) {
	e.advisedOnce.Do(func() {
		res, err := e.CoPhy(0, 0)
		if err != nil {
			e.advisedErr = err
			return
		}
		e.advised = res.Indexes
	})
	return e.advised, e.advisedErr
}

// CandidateFootprint sums the estimated pages of all candidate indexes —
// the 100% point of the storage-budget axis.
func (e *Env) CandidateFootprint() int64 {
	var total int64
	for _, ix := range e.Cands {
		total += ix.EstimatedPages
	}
	return total
}

// RotatingConfigs builds n configurations that cycle through the candidate
// set with different phases — the advisor's actual access mix of memo hits
// and fresh per-table designs (E8's sweep shape).
func (e *Env) RotatingConfigs(n int) []*catalog.Configuration {
	configs := make([]*catalog.Configuration, 0, n)
	for i := 0; i < n; i++ {
		cfg := catalog.NewConfiguration()
		for j, ix := range e.Cands {
			if (j+i)%4 == 0 {
				cfg = cfg.WithIndex(ix)
			}
		}
		configs = append(configs, cfg)
	}
	return configs
}

// SweepFamily builds n distinct configurations with varied per-table design
// signatures — enough per-config work that a parallel sweep is meaningful.
func (e *Env) SweepFamily(n int) []*catalog.Configuration {
	cfgs := make([]*catalog.Configuration, 0, n)
	for i := 0; i < n; i++ {
		cfg := catalog.NewConfiguration()
		for j, ix := range e.Cands {
			if (i+j)%5 == 0 || (i*j)%7 == 1 {
				cfg = cfg.WithIndex(ix)
			}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}
