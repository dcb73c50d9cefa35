// Package greedy implements the DTA-style greedy index advisor that
// commercial tools use (paper §1/§2): repeatedly add the candidate index
// with the best benefit(-per-page) until the storage budget is exhausted or
// no candidate helps. It is the comparison baseline for CoPhy (experiment
// E7) — greedy prunes the search space and can land in local optima, which
// is exactly the deficiency the paper calls out.
//
// The package also provides exhaustive enumeration for small instances, the
// ground truth used to verify CoPhy's optimality claims in tests.
//
// All what-if pricing flows through the shared costing engine; each greedy
// step evaluates the surviving candidates with one parallel sweep.
package greedy

import (
	"context"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Options tune the greedy search.
type Options struct {
	// StorageBudgetPages caps the selected indexes' footprint; 0 = unlimited.
	StorageBudgetPages int64
	// BenefitPerPage ranks candidates by benefit/size instead of raw
	// benefit (the usual knapsack heuristic).
	BenefitPerPage bool
}

// Result is the greedy recommendation.
type Result struct {
	Indexes      []*catalog.Index
	Objective    float64 // workload cost under Indexes
	BaselineCost float64 // workload cost with no indexes
	Steps        int     // greedy iterations
	PricingCalls int
}

// Improvement returns the relative cost reduction vs. no indexes.
func (r *Result) Improvement() float64 {
	if r.BaselineCost == 0 {
		return 0
	}
	return (r.BaselineCost - r.Objective) / r.BaselineCost
}

// Advisor runs the greedy heuristic over a candidate set using the engine's
// INUM-cached what-if pricing.
type Advisor struct {
	candidates []*catalog.Index
}

// New creates a greedy advisor over a candidate set.
func New(candidates []*catalog.Index) *Advisor {
	return &Advisor{candidates: candidates}
}

// Advise runs the greedy loop against one pinned engine generation. Every
// iteration prices the eligible candidates against the current
// configuration in one parallel sweep; a cancelled context aborts mid-sweep
// and returns ctx.Err().
func (a *Advisor) Advise(ctx context.Context, v *engine.View, w *workload.Workload, opts Options) (*Result, error) {
	if err := v.Prepare(ctx, w, a.candidates); err != nil {
		return nil, err
	}
	res := &Result{}
	cfg := catalog.NewConfiguration()
	cur, err := v.WorkloadCost(w, cfg)
	if err != nil {
		return nil, err
	}
	res.PricingCalls += len(w.Queries)
	res.BaselineCost = cur
	remaining := append([]*catalog.Index(nil), a.candidates...)
	var usedPages int64
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Eligible candidates this round, in stable ordinal order.
		var elig []int
		for i, ix := range remaining {
			if ix == nil {
				continue
			}
			if opts.StorageBudgetPages > 0 && usedPages+ix.EstimatedPages > opts.StorageBudgetPages {
				continue
			}
			elig = append(elig, i)
		}
		if len(elig) == 0 {
			break
		}
		trials := make([]*catalog.Index, len(elig))
		for k, i := range elig {
			trials[k] = remaining[i]
		}
		costs, err := v.SweepCandidates(ctx, w, cfg, trials)
		if err != nil {
			return nil, err
		}
		res.PricingCalls += len(trials) * len(w.Queries)

		bestIdx := -1
		bestScore := 0.0
		bestCost := cur
		for k, i := range elig {
			ix := remaining[i]
			benefit := cur - costs[k]
			if benefit <= 1e-9 {
				continue
			}
			score := benefit
			if opts.BenefitPerPage && ix.EstimatedPages > 0 {
				score = benefit / float64(ix.EstimatedPages)
			}
			if score > bestScore {
				bestScore = score
				bestIdx = i
				bestCost = costs[k]
			}
		}
		if bestIdx < 0 {
			break
		}
		ix := remaining[bestIdx]
		cfg = cfg.WithIndex(ix)
		usedPages += ix.EstimatedPages
		cur = bestCost
		remaining[bestIdx] = nil
		res.Indexes = append(res.Indexes, ix)
		res.Steps++
	}
	res.Objective = cur
	sort.Slice(res.Indexes, func(i, j int) bool { return res.Indexes[i].Key() < res.Indexes[j].Key() })
	return res, nil
}

// Exhaustive enumerates every candidate subset within budget and returns
// the true optimum. Exponential — use only with small candidate sets (the
// E7 ground truth). Subsets are priced in bounded parallel batches so peak
// memory stays fixed instead of materializing all 2^n configurations.
// Every subset prices against the one pinned generation v.
func Exhaustive(ctx context.Context, v *engine.View, candidates []*catalog.Index, w *workload.Workload, budgetPages int64) (*Result, error) {
	if err := v.Prepare(ctx, w, candidates); err != nil {
		return nil, err
	}
	res := &Result{}
	n := len(candidates)
	const batchSize = 4096

	best := math.Inf(1)
	bestMask := 0
	masks := make([]int, 0, batchSize)
	cfgs := make([]*catalog.Configuration, 0, batchSize)
	flush := func() error {
		if len(cfgs) == 0 {
			return nil
		}
		costs, err := v.SweepConfigs(ctx, w, cfgs)
		if err != nil {
			return err
		}
		res.PricingCalls += len(cfgs) * len(w.Queries)
		for k, mask := range masks {
			if mask == 0 {
				res.BaselineCost = costs[k]
			}
			if costs[k] < best {
				best = costs[k]
				bestMask = mask
			}
		}
		masks = masks[:0]
		cfgs = cfgs[:0]
		return nil
	}
	for mask := 0; mask < 1<<n; mask++ {
		cfg := catalog.NewConfiguration()
		var pages int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cfg = cfg.WithIndex(candidates[i])
				pages += candidates[i].EstimatedPages
			}
		}
		if budgetPages > 0 && pages > budgetPages {
			continue
		}
		masks = append(masks, mask)
		cfgs = append(cfgs, cfg)
		if len(cfgs) >= batchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	res.Objective = best
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			res.Indexes = append(res.Indexes, candidates[i])
		}
	}
	sort.Slice(res.Indexes, func(i, j int) bool { return res.Indexes[i].Key() < res.Indexes[j].Key() })
	return res, nil
}
