package engine

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// countingBackend wraps a CostBackend and counts Prepare calls — the probe
// for the prepared-set fast path.
type countingBackend struct {
	CostBackend
	prepares atomic.Int64
}

func (c *countingBackend) Prepare(id string, stmt *sqlparse.SelectStmt, candidates []*catalog.Index) error {
	c.prepares.Add(1)
	return c.CostBackend.Prepare(id, stmt, candidates)
}

// newCountingEngine builds an engine over the tiny dataset with its backend
// wrapped in a Prepare counter.
func newCountingEngine(t *testing.T) (*Engine, *workload.Workload, *countingBackend) {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 41)
	if err != nil {
		t.Fatal(err)
	}
	e := New(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{CostBackend: e.snap.backend}
	e.snap.backend = cb
	return e, w, cb
}

// TestSweepPreparesWorkloadOnce is the regression test for the per-sweep
// re-prepare bug: the first sweep prepares every query exactly once, and
// every subsequent sweep of the same workload in the same generation adds
// zero backend Prepare calls (one fingerprint lookup instead of |W| calls).
func TestSweepPreparesWorkloadOnce(t *testing.T) {
	e, w, cb := newCountingEngine(t)
	ctx := context.Background()
	cfgs := []*catalog.Configuration{nil, catalog.NewConfiguration()}

	first, err := e.Pin().SweepConfigs(ctx, w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := cb.prepares.Load()
	if afterFirst != int64(len(w.Queries)) {
		t.Fatalf("first sweep made %d Prepare calls, want %d", afterFirst, len(w.Queries))
	}

	for i := 0; i < 3; i++ {
		again, err := e.Pin().SweepConfigs(ctx, w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("repeat sweep %d config %d: %v != %v", i, j, again[j], first[j])
			}
		}
	}
	if got := cb.prepares.Load(); got != afterFirst {
		t.Fatalf("repeat sweeps re-prepared: %d Prepare calls, want %d", got, afterFirst)
	}
}

// TestExplicitPrepareSkipsSweepPrepare asserts a workload prepared through
// Prepare (with candidate guidance) is never re-prepared by later sweeps:
// the fingerprint recorded by Prepare satisfies the sweep's fast path.
func TestExplicitPrepareSkipsSweepPrepare(t *testing.T) {
	e, w, cb := newCountingEngine(t)
	ctx := context.Background()

	if err := e.Pin().Prepare(ctx, w, nil); err != nil {
		t.Fatal(err)
	}
	afterPrepare := cb.prepares.Load()
	if afterPrepare != int64(len(w.Queries)) {
		t.Fatalf("Prepare made %d backend calls, want %d", afterPrepare, len(w.Queries))
	}
	if _, err := e.Pin().SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != afterPrepare {
		t.Fatalf("sweep after Prepare re-prepared: %d calls, want %d", got, afterPrepare)
	}
}

// TestInvalidationResetsPreparedSet asserts the fast path is generation
// scoped: after an invalidation the new snapshot re-prepares the workload
// (stale templates must never satisfy a fresh generation).
func TestInvalidationResetsPreparedSet(t *testing.T) {
	e, w, _ := newCountingEngine(t)
	ctx := context.Background()
	if _, err := e.Pin().SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	e.Invalidate()
	// The rebuilt snapshot has a fresh (unwrapped) backend; count again.
	cb := &countingBackend{CostBackend: e.snap.backend}
	e.snap.backend = cb
	if _, err := e.Pin().SweepConfigs(ctx, w, []*catalog.Configuration{nil}); err != nil {
		t.Fatal(err)
	}
	if got := cb.prepares.Load(); got != int64(len(w.Queries)) {
		t.Fatalf("post-invalidation sweep made %d Prepare calls, want %d", got, len(w.Queries))
	}
}
