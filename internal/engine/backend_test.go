package engine_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// newBackendFixture builds a dataset + workload and an engine with the
// given backend spec.
func newBackendFixture(t *testing.T, spec engine.BackendSpec) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewWithBackend(store.Schema, store.Stats, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewWorkload(store.Schema, 42, 12)
	if err != nil {
		t.Fatal(err)
	}
	v := eng.Pin()
	cands := v.Session().GenerateCandidates(w, candOpts())
	if err := v.Prepare(context.Background(), w, cands); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, w: w, cands: cands}
}

// indexProbe returns a selective range query plus a configuration holding a
// matching index — a plan where random-page costs matter, so native and
// calibrated backends must disagree on the absolute cost. (Seq-scan-only
// plans price identically under both: seq_page_cost and the CPU constants
// are shared between the default calibration and the native model.)
func indexProbe(t *testing.T, e *engine.Engine) (workload.Query, *catalog.Configuration) {
	t.Helper()
	ix, err := e.Pin().Session().HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT objid FROM photoobj WHERE psfmag_r < 14"
	stmt, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(stmt, e.Schema()); err != nil {
		t.Fatal(err)
	}
	q := workload.Query{ID: "probe", SQL: sql, Weight: 1, Stmt: stmt}
	return q, catalog.NewConfiguration().WithIndex(ix)
}

// TestCalibratedBackendDisagreesOnAbsoluteCosts is the premise of the
// portability experiment: the calibrated backend prices the same designs
// with a different economy, so absolute costs must differ from native on
// index-bearing plans while staying positive and finite.
func TestCalibratedBackendDisagreesOnAbsoluteCosts(t *testing.T) {
	native := newFixture(t)
	calib := newBackendFixture(t, engine.BackendSpec{Kind: engine.BackendCalibrated})

	if got := calib.eng.Pin().Backend().Kind; got != engine.BackendCalibrated {
		t.Fatalf("backend kind = %q", got)
	}
	q, cfg := indexProbe(t, native.eng)
	nc, err := native.eng.Pin().QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := calib.eng.Pin().QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nc <= 0 || cc <= 0 {
		t.Fatalf("non-positive cost: native=%v calibrated=%v", nc, cc)
	}
	if nc == cc {
		t.Fatalf("calibrated backend returned the native cost %v for an index scan — the calibration is not applied", nc)
	}
	// Every query stays priceable under both backends.
	for _, wq := range native.w.Queries {
		if _, err := calib.eng.Pin().QueryCost(wq, nil); err != nil {
			t.Fatalf("%s under calibrated: %v", wq.ID, err)
		}
	}
}

// TestSetBackendBumpsGenerationAndInvalidates is the no-stale-costs
// regression test: swapping backends must bump the engine generation and
// rebuild all cached costing state, while views pinned before the swap keep
// pricing through the backend they were created with.
func TestSetBackendBumpsGenerationAndInvalidates(t *testing.T) {
	f := newFixture(t)
	q, cfg := indexProbe(t, f.eng)

	v0 := f.eng.Pin().Version()
	pinned := f.eng.Pin()
	nativeCost, err := pinned.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := f.eng.SetBackend(engine.BackendSpec{Kind: engine.BackendCalibrated}); err != nil {
		t.Fatal(err)
	}
	if got := f.eng.Pin().Version(); got != v0+1 {
		t.Fatalf("version after SetBackend = %d, want %d", got, v0+1)
	}
	if full, cached := f.eng.CacheStats(); full+cached != 0 {
		t.Fatalf("SetBackend kept the previous backend's INUM cache (%d full, %d cached costings)", full, cached)
	}
	if got := f.eng.Pin().Backend().Kind; got != engine.BackendCalibrated {
		t.Fatalf("active backend = %q", got)
	}

	calibCost, err := f.eng.Pin().QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calibCost == nativeCost {
		t.Fatalf("cost after backend swap unchanged (%v) — stale plan costs served across backends", calibCost)
	}

	// The pinned view still prices through the native backend, exactly.
	after, err := pinned.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after != nativeCost {
		t.Fatalf("pinned view leaked the new backend: %v != %v", after, nativeCost)
	}
	if pinned.Backend().Kind != engine.BackendNative {
		t.Fatalf("pinned view backend = %q, want native", pinned.Backend().Kind)
	}

	// Swapping back restores native pricing bit-for-bit (fresh cache, same
	// model).
	if err := f.eng.SetBackend(engine.BackendSpec{}); err != nil {
		t.Fatal(err)
	}
	if got := f.eng.Pin().Version(); got != v0+2 {
		t.Fatalf("version after second swap = %d, want %d", got, v0+2)
	}
	back, err := f.eng.Pin().QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back != nativeCost {
		t.Fatalf("native costs not reproducible after swap round-trip: %v != %v", back, nativeCost)
	}
}

// TestSetBackendRejectsInvalidSpec ensures a bad spec cannot tear down a
// working engine.
func TestSetBackendRejectsInvalidSpec(t *testing.T) {
	f := newFixture(t)
	v0 := f.eng.Pin().Version()
	if err := f.eng.SetBackend(engine.BackendSpec{Kind: "voodoo"}); err == nil {
		t.Fatal("unknown backend kind accepted")
	}
	if err := f.eng.SetBackend(engine.BackendSpec{Kind: engine.BackendReplay}); err == nil {
		t.Fatal("replay backend without a trace accepted")
	}
	if f.eng.Pin().Version() != v0 {
		t.Fatal("failed SetBackend bumped the generation")
	}
	if _, err := engine.NewWithBackend(f.eng.Schema(), f.eng.Pin().Stats(), nil,
		engine.BackendSpec{Kind: engine.BackendCalibrated, Calibration: &engine.Calibration{Name: "zero"}}); err == nil {
		t.Fatal("zero-valued calibration accepted")
	}
	// Parameters the selected kind would ignore are rejected, not dropped:
	// a calibration on a native spec means the caller thinks it applies.
	if err := f.eng.SetBackend(engine.BackendSpec{Calibration: engine.DefaultCalibration()}); err == nil {
		t.Fatal("calibration attached to a native backend accepted")
	}
	if err := f.eng.SetBackend(engine.BackendSpec{Kind: engine.BackendCalibrated, Trace: &engine.Trace{}}); err == nil {
		t.Fatal("trace attached to a calibrated backend accepted")
	}
	if err := f.eng.SetBackend(engine.BackendSpec{Kind: engine.BackendReplay, Trace: &engine.Trace{}, Calibration: engine.DefaultCalibration()}); err == nil {
		t.Fatal("calibration attached to a replay backend accepted")
	}
}

// TestPinBackendIsolated checks the per-session backend surface: a
// calibrated view prices with calibrated constants while the engine — and
// views pinned normally — stay native, and the engine version is untouched.
func TestPinBackendIsolated(t *testing.T) {
	f := newFixture(t)
	q, cfg := indexProbe(t, f.eng)
	v := f.eng.Pin()
	v0 := v.Version()

	native, err := v.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := f.eng.PinBackend(engine.BackendSpec{Kind: engine.BackendCalibrated})
	if err != nil {
		t.Fatal(err)
	}
	calib, err := cv.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calib == native {
		t.Fatalf("per-session calibrated view returned the native cost %v", calib)
	}
	if v.Version() != v0 {
		t.Fatal("PinBackend bumped the engine generation")
	}
	if got := v.Backend().Kind; got != engine.BackendNative {
		t.Fatalf("PinBackend leaked into the engine: %q", got)
	}
	again, err := v.QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != native {
		t.Fatalf("engine costing changed after PinBackend: %v != %v", again, native)
	}
}

// TestRecordReplayReproducesCostsExactly is the trace-driven portability
// contract: replaying a recorded native trace returns bit-identical costs
// for every recorded call, with no live optimizer behind it.
func TestRecordReplayReproducesCostsExactly(t *testing.T) {
	rec := engine.NewRecorder()
	f := newBackendFixture(t, engine.BackendSpec{Recorder: rec})
	cfgs := f.sweepConfigs(6)

	recorded := make([][]float64, len(cfgs))
	v := f.eng.Pin()
	for i, cfg := range cfgs {
		costs := make([]float64, len(f.w.Queries))
		for j, q := range f.w.Queries {
			c, err := v.QueryCost(q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			costs[j] = c
		}
		recorded[i] = costs
	}
	rep, err := v.Evaluate(context.Background(), f.w, cfgs[1])
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the trace through disk, as the CLI workflow would.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	trace, err := engine.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Backend != engine.BackendNative {
		t.Fatalf("trace backend = %q", trace.Backend)
	}

	replay, err := engine.NewWithBackend(f.eng.Schema(), v.Stats(), nil,
		engine.BackendSpec{Kind: engine.BackendReplay, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		for j, q := range f.w.Queries {
			c, err := replay.Pin().QueryCost(q, cfg)
			if err != nil {
				t.Fatalf("replay %s under config %d: %v", q.ID, i, err)
			}
			if c != recorded[i][j] {
				t.Fatalf("replay %s under config %d: %v != recorded %v", q.ID, i, c, recorded[i][j])
			}
		}
	}
	rrep, err := replay.Pin().Evaluate(context.Background(), f.w, cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if rrep.BaseTotal != rep.BaseTotal || rrep.NewTotal != rep.NewTotal {
		t.Fatalf("replayed report (%v -> %v) != recorded (%v -> %v)",
			rrep.BaseTotal, rrep.NewTotal, rep.BaseTotal, rep.NewTotal)
	}

	// A call outside the trace fails loudly instead of inventing a number.
	unseen := catalog.NewConfiguration()
	for _, ix := range f.cands {
		unseen = unseen.WithIndex(ix)
	}
	if _, err := replay.Pin().QueryCost(f.w.Queries[0], unseen); err == nil {
		t.Fatal("replay served a cost for an unrecorded configuration")
	} else if !strings.Contains(err.Error(), "replay") {
		t.Fatalf("unhelpful replay miss error: %v", err)
	}
}

// TestCalibrationFileRoundTrip exercises the calibration JSON surface.
func TestCalibrationFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cal.json")
	cal := engine.DefaultCalibration()
	cal.Name = "test-profile"
	cal.RandomPageCost = 2.5
	if err := cal.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := engine.LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *cal {
		t.Fatalf("round trip changed the calibration: %+v != %+v", got, cal)
	}

	bad := filepath.Join(dir, "bad.json")
	writeFile(t, bad, `{"name": "typo", "random_page_cosy": 3}`)
	if _, err := engine.LoadCalibration(bad); err == nil {
		t.Fatal("unknown calibration field accepted")
	}
	neg := filepath.Join(dir, "neg.json")
	writeFile(t, neg, `{"name": "neg", "seq_page_cost": -1}`)
	if _, err := engine.LoadCalibration(neg); err == nil {
		t.Fatal("negative cost constant accepted")
	}
}

// TestConcurrentBackendSwapsStayConsistent hammers SetBackend while sweeps
// run. Under -race this proves the swap path is safe; the assertion checks
// every sweep returns internally consistent costs (all from one backend
// generation, matching a serial re-computation on the same pinned view).
func TestConcurrentBackendSwapsStayConsistent(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(8)
	specs := []engine.BackendSpec{
		{},
		{Kind: engine.BackendCalibrated},
		{Kind: engine.BackendCalibrated, Calibration: &engine.Calibration{
			Name: "hdd", SeqPageCost: 1, RandomPageCost: 8, CPUTupleCost: 0.02,
			CPUIndexTupleCost: 0.01, CPUOperatorCost: 0.005, EffectiveCacheSizePages: 1 << 16,
		}},
	}

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				v := f.eng.Pin()
				swept, err := v.SweepConfigs(context.Background(), f.w, cfgs)
				if err != nil {
					errs[g] = err
					return
				}
				for i, cfg := range cfgs {
					want, err := v.WorkloadCost(f.w, cfg)
					if err != nil {
						errs[g] = err
						return
					}
					if swept[i] != want {
						errs[g] = context.DeadlineExceeded // marker; message below
						t.Errorf("goroutine %d: sweep cost %v != pinned serial %v", g, swept[i], want)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				if err := f.eng.SetBackend(specs[(g+r)%len(specs)]); err != nil {
					errs[4+g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && err != context.DeadlineExceeded {
			t.Fatal(err)
		}
	}
}

func candOpts() whatif.CandidateOptions {
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = 4
	return opts
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
