package cophy_test

import (
	"context"
	"testing"

	"repro/internal/cophy"
)

// TestWarmStartMatchesCold pins the re-advise warm-start contract: seeding
// the solver with a previous advice's basis must not change the advice —
// same index set, same objective, same proven bound — and the seed must
// actually be accepted as the initial incumbent.
func TestWarmStartMatchesCold(t *testing.T) {
	f := newFixture(t, 10, 12)
	adv := cophy.New(f.eng, f.cands)
	ctx := context.Background()

	cold, err := adv.AdviseView(ctx, f.eng.Pin(), f.w, cophy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted {
		t.Fatal("cold run claims a warm start")
	}

	opts := cophy.DefaultOptions()
	for _, ix := range cold.Indexes {
		opts.WarmStartKeys = append(opts.WarmStartKeys, ix.Key())
	}
	warm, err := adv.AdviseView(ctx, f.eng.Pin(), f.w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("previous basis was not accepted as a warm start")
	}
	if warm.Objective != cold.Objective || warm.Bound != cold.Bound || !warm.Proven {
		t.Fatalf("warm (obj %v bound %v proven %v) != cold (obj %v bound %v proven %v)",
			warm.Objective, warm.Bound, warm.Proven, cold.Objective, cold.Bound, cold.Proven)
	}
	if len(warm.Indexes) != len(cold.Indexes) {
		t.Fatalf("warm picked %d indexes, cold %d", len(warm.Indexes), len(cold.Indexes))
	}
	for i := range warm.Indexes {
		if warm.Indexes[i].Key() != cold.Indexes[i].Key() {
			t.Fatalf("warm index %d = %s, cold %s", i, warm.Indexes[i].Key(), cold.Indexes[i].Key())
		}
	}
	if warm.Nodes > cold.Nodes {
		t.Fatalf("warm expanded %d nodes vs cold %d — the seed did not prune", warm.Nodes, cold.Nodes)
	}
}

// TestWarmStartStaleBasisIgnored asserts a basis that no longer fits the
// budget is dropped and the run behaves exactly like a cold one.
func TestWarmStartStaleBasisIgnored(t *testing.T) {
	f := newFixture(t, 10, 12)
	adv := cophy.New(f.eng, f.cands)
	ctx := context.Background()

	unlimited, err := adv.AdviseView(ctx, f.eng.Pin(), f.w, cophy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(unlimited.Indexes) == 0 {
		t.Skip("no indexes advised; nothing to shrink against")
	}

	// Budget below the basis footprint: the seed is infeasible now.
	var footprint int64
	for _, ix := range unlimited.Indexes {
		footprint += ix.EstimatedPages
	}
	tight := cophy.DefaultOptions()
	tight.StorageBudgetPages = footprint / 2
	for _, ix := range unlimited.Indexes {
		tight.WarmStartKeys = append(tight.WarmStartKeys, ix.Key())
	}
	warm, err := adv.AdviseView(ctx, f.eng.Pin(), f.w, tight)
	if err != nil {
		t.Fatal(err)
	}

	coldOpts := cophy.DefaultOptions()
	coldOpts.StorageBudgetPages = tight.StorageBudgetPages
	cold, err := adv.AdviseView(ctx, f.eng.Pin(), f.w, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Objective != cold.Objective {
		t.Fatalf("stale basis changed the objective: warm %v cold %v", warm.Objective, cold.Objective)
	}
}
