package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

type fixture struct {
	eng   *engine.Engine
	w     *workload.Workload
	cands []*catalog.Index
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 42, 12)
	if err != nil {
		t.Fatal(err)
	}
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = 4
	v := eng.Pin()
	cands := v.Session().GenerateCandidates(w, opts)
	if len(cands) < 4 {
		t.Fatalf("want at least 4 candidates, got %d", len(cands))
	}
	if err := v.Prepare(context.Background(), w, cands); err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, w: w, cands: cands}
}

// sweepConfigs builds a deterministic family of configurations over the
// candidate set.
func (f *fixture) sweepConfigs(n int) []*catalog.Configuration {
	cfgs := make([]*catalog.Configuration, 0, n)
	for i := 0; i < n; i++ {
		cfg := catalog.NewConfiguration()
		for j, ix := range f.cands {
			if (i+j)%3 == 0 {
				cfg = cfg.WithIndex(ix)
			}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestSweepConfigsMatchesSerial asserts the worker-pool sweep returns
// bit-for-bit the costs a serial loop computes.
func TestSweepConfigsMatchesSerial(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(16)

	serial := make([]float64, len(cfgs))
	v := f.eng.Pin()
	for i, cfg := range cfgs {
		c, err := v.WorkloadCost(f.w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = c
	}
	parallel, err := v.SweepConfigs(context.Background(), f.w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if parallel[i] != serial[i] {
			t.Fatalf("config %d: parallel %v != serial %v", i, parallel[i], serial[i])
		}
	}
}

// TestSweepCandidatesMatchesSerial checks the base-plus-one-candidate sweep
// against serial WorkloadCost calls.
func TestSweepCandidatesMatchesSerial(t *testing.T) {
	f := newFixture(t)
	base := catalog.NewConfiguration().WithIndex(f.cands[0])

	v := f.eng.Pin()
	costs, err := v.SweepCandidates(context.Background(), f.w, base, f.cands[1:])
	if err != nil {
		t.Fatal(err)
	}
	for i, ix := range f.cands[1:] {
		want, err := v.WorkloadCost(f.w, base.WithIndex(ix))
		if err != nil {
			t.Fatal(err)
		}
		if costs[i] != want {
			t.Fatalf("candidate %s: sweep %v != serial %v", ix.Key(), costs[i], want)
		}
	}
}

// TestConcurrentSweepsMatchSerial sweeps the same workload from many
// goroutines simultaneously and asserts every goroutine observes exactly
// the serial results — the -race guarantee the engine layer exists to give.
func TestConcurrentSweepsMatchSerial(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(12)

	serial := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		c, err := f.eng.Pin().WorkloadCost(f.w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = c
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix whole-workload sweeps and per-query costings.
			got, err := f.eng.Pin().SweepConfigs(context.Background(), f.w, cfgs)
			if err != nil {
				errs[g] = err
				return
			}
			for i := range cfgs {
				if got[i] != serial[i] {
					errs[g] = fmt.Errorf("goroutine %d config %d: %v != %v", g, i, got[i], serial[i])
					return
				}
			}
			for i, q := range f.w.Queries {
				if _, err := f.eng.Pin().QueryCost(q, cfgs[i%len(cfgs)]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepQueryConfigsMatchesSerial checks CoPhy's atom-pricing primitive.
func TestSweepQueryConfigsMatchesSerial(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(10)
	q := f.w.Queries[0]

	v := f.eng.Pin()
	costs, err := v.SweepQueryConfigs(context.Background(), q, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := v.QueryCost(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if costs[i] != want {
			t.Fatalf("config %d: %v != %v", i, costs[i], want)
		}
	}
}

// TestVersioningAndInvalidation verifies the engine swaps a fresh cache and
// bumps the version whenever the base configuration changes, and that
// nil-configuration costing tracks the current base.
func TestVersioningAndInvalidation(t *testing.T) {
	f := newFixture(t)
	q := f.w.Queries[0]

	v0 := f.eng.Pin().Version()
	baseCost, err := f.eng.Pin().QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Adopt the full candidate set as the new base design.
	cfg := catalog.NewConfiguration()
	for _, ix := range f.cands {
		cfg = cfg.WithIndex(ix)
	}
	f.eng.SetBaseConfig(cfg)

	if got := f.eng.Pin().Version(); got != v0+1 {
		t.Fatalf("version = %d, want %d", got, v0+1)
	}
	if full, cached := f.eng.CacheStats(); full+cached != 0 {
		t.Fatalf("SetBaseConfig kept the stale INUM cache (%d full, %d cached costings)", full, cached)
	}
	newCost, err := f.eng.Pin().QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eng.Pin().QueryCost(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if newCost != want {
		t.Fatalf("nil-config costing %v does not reflect the new base %v", newCost, want)
	}
	if newCost > baseCost {
		t.Fatalf("cost under the full candidate set (%v) should not exceed the empty base (%v)", newCost, baseCost)
	}

	f.eng.Invalidate()
	if got := f.eng.Pin().Version(); got != v0+2 {
		t.Fatalf("version after Invalidate = %d, want %d", got, v0+2)
	}
}

// TestPinnedViewSurvivesReconfiguration asserts a view captured before
// SetBaseConfig keeps pricing against its own generation, so an advisor
// run in flight stays internally consistent.
func TestPinnedViewSurvivesReconfiguration(t *testing.T) {
	f := newFixture(t)
	q := f.w.Queries[0]
	v := f.eng.Pin()
	before, err := v.QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	full := catalog.NewConfiguration()
	for _, ix := range f.cands {
		full = full.WithIndex(ix)
	}
	f.eng.SetBaseConfig(full)

	// The pinned view still resolves nil to the OLD (empty) base.
	after, err := v.QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("pinned view changed generation: %v != %v", after, before)
	}
	if v.Version() == f.eng.Pin().Version() {
		t.Fatal("pinned view should report the old version")
	}
	// A fresh pin sees the new generation.
	fresh, err := f.eng.Pin().QueryCost(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh > before {
		t.Fatalf("new generation (all candidates) should not cost more: %v > %v", fresh, before)
	}
}

// TestEvictPrefix checks namespaced entries can be dropped from the cache.
func TestEvictPrefix(t *testing.T) {
	f := newFixture(t)
	q := f.w.Queries[0]
	nq := q
	nq.ID = "ns|" + q.ID
	if _, err := f.eng.Pin().QueryCost(nq, nil); err != nil {
		t.Fatal(err)
	}
	if n := f.eng.EvictPrefix("ns|"); n != 1 {
		t.Fatalf("evicted %d entries, want 1", n)
	}
	if n := f.eng.EvictPrefix("ns|"); n != 0 {
		t.Fatalf("second evict removed %d entries, want 0", n)
	}
}

// TestEvaluateMatchesSerialFullCosts asserts the engine's Report
// generation (parallel inside the session) agrees with serial
// full-optimizer costings of every query.
func TestEvaluateMatchesSerialFullCosts(t *testing.T) {
	f := newFixture(t)
	cfg := catalog.NewConfiguration()
	for _, ix := range f.cands[:2] {
		cfg = cfg.WithIndex(ix)
	}
	v := f.eng.Pin()
	rep, err := v.Evaluate(context.Background(), f.w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != len(f.w.Queries) {
		t.Fatalf("report has %d queries, want %d", len(rep.Queries), len(f.w.Queries))
	}
	var wantBase, wantNew float64
	for i, q := range f.w.Queries {
		base, err := v.FullCost(q.Stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := v.FullCost(q.Stmt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Queries[i].BaseCost != base*q.Weight || rep.Queries[i].NewCost != nw*q.Weight {
			t.Fatalf("%s: report (%v -> %v) != serial (%v -> %v)",
				q.ID, rep.Queries[i].BaseCost, rep.Queries[i].NewCost, base*q.Weight, nw*q.Weight)
		}
		wantBase += base * q.Weight
		wantNew += nw * q.Weight
	}
	if rep.BaseTotal != wantBase || rep.NewTotal != wantNew {
		t.Fatalf("totals (%v -> %v) != serial (%v -> %v)", rep.BaseTotal, rep.NewTotal, wantBase, wantNew)
	}
}

// TestSessionWithScopedJoinControl asserts per-session join steering does
// not leak into the engine.
func TestSessionWithScopedJoinControl(t *testing.T) {
	f := newFixture(t)
	v := f.eng.Pin()
	full0, cached0 := f.eng.CacheStats()

	sess := v.SessionWith(optimizer.Options{DisableHashJoin: true, DisableMergeJoin: true})
	if sess == v.Session() {
		t.Fatal("SessionWith returned the shared session")
	}
	cur := f.eng.Pin()
	full, cached := f.eng.CacheStats()
	if cur.Version() != v.Version() || full != full0 || cached != cached0 {
		t.Fatal("SessionWith mutated the engine")
	}
	if !sess.Env().Opts.DisableHashJoin {
		t.Fatal("derived session did not apply the switches")
	}
	if cur.Session().Env().Opts.DisableHashJoin {
		t.Fatal("join switches leaked into the engine environment")
	}
}

// TestSetWorkers exercises the pool-size bound, including the serial path.
func TestSetWorkers(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(6)
	want, err := f.eng.Pin().SweepConfigs(context.Background(), f.w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 0} {
		f.eng.SetWorkers(n)
		got, err := f.eng.Pin().SweepConfigs(context.Background(), f.w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d config %d: %v != %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestSweepWidthsBitIdentical runs the same sweep at worker counts
// {1, 2, 7, 16} and asserts every width returns exactly the serial costs —
// the schedule-independence half of the determinism contract.
func TestSweepWidthsBitIdentical(t *testing.T) {
	f := newFixture(t)
	cfgs := f.sweepConfigs(33) // odd count: uneven chunk deal
	f.eng.SetWorkers(1)
	serial, err := f.eng.Pin().SweepConfigs(context.Background(), f.w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.eng.SetWorkers(0)
	for _, workers := range []int{2, 7, 16} {
		f.eng.SetWorkers(workers)
		got, err := f.eng.Pin().SweepConfigs(context.Background(), f.w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d config %d: %v != serial %v", workers, i, got[i], serial[i])
			}
		}
	}
}
