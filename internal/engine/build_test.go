package engine

import (
	"testing"

	"repro/internal/workload"
)

func TestIndexBuildThrottledSteps(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(store.Schema, store.Stats, nil)
	ix, err := eng.Pin().Session().HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		t.Fatal(err)
	}

	b := NewIndexBuild(ix, store.Stats)
	done, total := b.Progress()
	if done != 0 || total <= ix.EstimatedPages {
		t.Fatalf("fresh build progress = %d/%d; total must include heap scan beyond %d leaf pages",
			done, total, ix.EstimatedPages)
	}

	// Drain in fixed steps; every step but the last consumes the full
	// budget, the sum of steps is exactly the total, and Done flips only at
	// the end.
	const budget = 7
	var spent, steps int64
	for !b.Done() {
		got := b.Advance(budget)
		if got <= 0 || got > budget {
			t.Fatalf("step consumed %d pages (budget %d)", got, budget)
		}
		if got < budget && !b.Done() {
			t.Fatalf("short step of %d pages but build not done", got)
		}
		spent += got
		steps++
		if steps > total {
			t.Fatal("build never finished")
		}
	}
	if spent != total {
		t.Fatalf("steps summed to %d, want %d", spent, total)
	}
	if b.Advance(budget) != 0 {
		t.Fatal("Advance after completion must be a no-op")
	}
	if b.Advance(0) != 0 {
		t.Fatal("non-positive budget must perform no work")
	}
	if b.Key() != ix.Key() || b.Index() != ix {
		t.Fatal("build lost track of its index")
	}
}

func TestIndexBuildUnknownTableFloorsAtOnePage(t *testing.T) {
	store, err := workload.Generate(workload.TinySize(), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(store.Schema, store.Stats, nil)
	ix, err := eng.Pin().Session().HypotheticalIndex("photoobj", "psfmag_r")
	if err != nil {
		t.Fatal(err)
	}
	orphan := *ix
	orphan.Table = "no_such_table"
	orphan.EstimatedPages = 0
	b := NewIndexBuild(&orphan, store.Stats)
	if _, total := b.Progress(); total != 2 {
		t.Fatalf("degenerate build total = %d, want 2 (1 heap + 1 leaf floor)", total)
	}
	if got := b.Advance(100); got != 2 || !b.Done() {
		t.Fatalf("single oversized step should finish: spent %d done=%v", got, b.Done())
	}
}
