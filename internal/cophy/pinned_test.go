package cophy_test

import (
	"context"
	"testing"

	"repro/internal/cophy"
)

func TestPinnedKeysForceSelection(t *testing.T) {
	f := newFixture(t, 8, 12)
	adv := cophy.New(f.eng, f.cands)

	// Baseline without pinning.
	base, err := adv.AdviseView(context.Background(), f.eng.Pin(), f.w, cophy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Find a candidate the solver did NOT pick.
	var unpicked string
	selected := map[string]bool{}
	for _, ix := range base.Indexes {
		selected[ix.Key()] = true
	}
	for _, ix := range f.cands {
		if !selected[ix.Key()] {
			unpicked = ix.Key()
			break
		}
	}
	if unpicked == "" {
		t.Skip("solver selected every candidate; nothing to pin")
	}

	opts := cophy.DefaultOptions()
	opts.PinnedKeys = []string{unpicked}
	res, err := adv.AdviseView(context.Background(), f.eng.Pin(), f.w, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ix := range res.Indexes {
		if ix.Key() == unpicked {
			found = true
		}
	}
	if !found {
		t.Fatalf("pinned %s missing from solution", unpicked)
	}
	// Forcing a previously-unpicked index cannot beat the unconstrained
	// optimum.
	if res.Objective < base.Objective-1e-6 {
		t.Fatalf("pinned objective %f beats optimum %f", res.Objective, base.Objective)
	}
}

func TestPinnedUnknownKeyErrors(t *testing.T) {
	f := newFixture(t, 4, 8)
	adv := cophy.New(f.eng, f.cands)
	opts := cophy.DefaultOptions()
	opts.PinnedKeys = []string{"nosuch(table)"}
	if _, err := adv.AdviseView(context.Background(), f.eng.Pin(), f.w, opts); err == nil {
		t.Fatal("unknown pinned key should error")
	}
}
