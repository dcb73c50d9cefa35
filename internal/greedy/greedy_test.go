package greedy_test

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/greedy"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func fixture(t *testing.T, nQueries, maxCands int) (*engine.Engine, []*catalog.Index, *workload.Workload) {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 61)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)
	w, err := workload.NewWorkload(store.Schema, 62, nQueries)
	if err != nil {
		t.Fatal(err)
	}
	opts := whatif.DefaultCandidateOptions()
	opts.MaxPerTable = 4
	cands := eng.Pin().Session().GenerateCandidates(w, opts)
	if len(cands) > maxCands {
		cands = cands[:maxCands]
	}
	return eng, cands, w
}

func TestGreedyImproves(t *testing.T) {
	eng, cands, w := fixture(t, 12, 20)
	adv := greedy.New(cands)
	res, err := adv.Advise(context.Background(), eng.Pin(), w, greedy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indexes) == 0 || res.Steps == 0 {
		t.Fatal("greedy selected nothing")
	}
	if res.Objective >= res.BaselineCost {
		t.Fatalf("objective %f >= baseline %f", res.Objective, res.BaselineCost)
	}
	if res.Improvement() <= 0 {
		t.Fatal("no improvement")
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	eng, cands, w := fixture(t, 8, 16)
	var total int64
	for _, ix := range cands {
		total += ix.EstimatedPages
	}
	budget := total / 4
	adv := greedy.New(cands)
	res, err := adv.Advise(context.Background(), eng.Pin(), w, greedy.Options{StorageBudgetPages: budget, BenefitPerPage: true})
	if err != nil {
		t.Fatal(err)
	}
	var used int64
	for _, ix := range res.Indexes {
		used += ix.EstimatedPages
	}
	if used > budget {
		t.Fatalf("budget violated: %d > %d", used, budget)
	}
}

func TestGreedyNeverWorseThanBaseline(t *testing.T) {
	eng, cands, w := fixture(t, 8, 10)
	adv := greedy.New(cands)
	for _, budget := range []int64{0, 1, 100, 100000} {
		res, err := adv.Advise(context.Background(), eng.Pin(), w, greedy.Options{StorageBudgetPages: budget})
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective > res.BaselineCost+1e-6 {
			t.Fatalf("budget %d: objective %f > baseline %f",
				budget, res.Objective, res.BaselineCost)
		}
	}
}

func TestExhaustiveAtLeastAsGoodAsGreedy(t *testing.T) {
	eng, cands, w := fixture(t, 6, 8)
	adv := greedy.New(cands)
	gres, err := adv.Advise(context.Background(), eng.Pin(), w, greedy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := greedy.Exhaustive(context.Background(), eng.Pin(), cands, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eres.Objective > gres.Objective+1e-6 {
		t.Fatalf("exhaustive %f worse than greedy %f", eres.Objective, gres.Objective)
	}
	if eres.BaselineCost != gres.BaselineCost {
		t.Fatalf("baselines differ: %f vs %f", eres.BaselineCost, gres.BaselineCost)
	}
}
