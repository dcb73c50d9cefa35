// Package schedule implements interaction-aware index materialization
// scheduling (§3.5, second tool of Schnaitter et al.): given a recommended
// index set, pick the build order that maximizes the benefit accrued while
// the indexes are still being built.
//
// Indexes take real time to build (a heap scan plus a sort plus writing the
// leaves), and during that time the workload keeps running against the
// prefix built so far. The schedule metric is therefore the area under the
// workload-cost-versus-build-time curve (lower is better). Because of index
// interactions, the marginal benefit of an index depends on what has
// already been built — the greedy scheduler re-evaluates marginal benefit
// per step against the current prefix (capturing interactions through the
// INUM-costed configuration), while the oblivious baseline ranks indexes
// once by standalone benefit, which is what a designer ignoring
// interactions would do (experiment E9).
package schedule

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Step is one index build in a schedule.
type Step struct {
	Index *catalog.Index
	// BuildCost is the estimated build effort in the optimizer's cost units.
	BuildCost float64
	// CostAfter is the workload cost once this index (and all previous
	// steps) are built.
	CostAfter float64
}

// Schedule is an ordered materialization plan.
type Schedule struct {
	Steps []Step
	// BaseCost is the workload cost before any index is built.
	BaseCost float64
	// AUC is the area under the workload-cost/build-time curve: the total
	// "cost-time" experienced while materializing in this order.
	AUC float64
	// TotalBuild is the sum of build costs.
	TotalBuild float64
}

// FinalCost is the workload cost with all indexes built.
func (s *Schedule) FinalCost() float64 {
	if len(s.Steps) == 0 {
		return s.BaseCost
	}
	return s.Steps[len(s.Steps)-1].CostAfter
}

// String renders the schedule as an ordered list.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "materialization schedule (base cost %.1f):\n", s.BaseCost)
	for i, st := range s.Steps {
		fmt.Fprintf(&b, "  %2d. %-44s build=%-10.1f workload-cost-after=%.1f\n",
			i+1, st.Index.Key(), st.BuildCost, st.CostAfter)
	}
	fmt.Fprintf(&b, "  AUC(cost x build-time) = %.1f\n", s.AUC)
	return b.String()
}

// BuildCost estimates the effort to materialize a structure — expressed in
// the optimizer's cost units so it is commensurable with workload costs.
// Secondary indexes and covering projections scan the heap, sort the
// entries, and write the leaves (a projection's wider leaves show up
// through its larger EstimatedPages). An aggregate view replaces the sort
// with a hash aggregation over the group keys and writes one row per group.
func BuildCost(ix *catalog.Index, st *stats.Catalog, params optimizer.CostParams) float64 {
	ts := st.Table(ix.Table)
	if ts == nil {
		return 1
	}
	rows := float64(ts.RowCount)
	heapScan := float64(ts.Pages) * params.SeqPageCost
	leafWrite := float64(ix.EstimatedPages) * params.SeqPageCost
	if ix.Kind == catalog.KindAggView {
		groups := float64(ix.EstimatedRows)
		if groups <= 0 || groups > rows {
			groups = rows
		}
		aggCPU := rows*params.CPUOperatorCost*float64(1+len(ix.Aggs)) + groups*params.CPUTupleCost
		return heapScan + aggCPU + leafWrite + groups*params.CPUTupleCost
	}
	sortCPU := 0.0
	if rows > 1 {
		sortCPU = 2 * params.CPUOperatorCost * rows * math.Log2(rows)
	}
	return heapScan + sortCPU + leafWrite + rows*params.CPUTupleCost
}

// Scheduler orders index builds using INUM-estimated workload costs from a
// pinned engine view.
type Scheduler struct{}

// New creates a scheduler. The engine argument is unused: every schedule
// prices against the view its caller pins.
func New(_ *engine.Engine) *Scheduler {
	return &Scheduler{}
}

// workloadCost prices the workload under a configuration against a pinned
// engine view.
func workloadCost(ctx context.Context, v *engine.View, w *workload.Workload, indexes []*catalog.Index, cfg *catalog.Configuration) (float64, error) {
	if err := v.Prepare(ctx, w, indexes); err != nil {
		return 0, err
	}
	return v.WorkloadCost(w, cfg)
}

// GreedyView computes the interaction-aware schedule against one pinned
// engine generation: at each step it builds the index with the best
// marginal-benefit-to-build-cost ratio relative to the prefix already
// built. Every step prices the remaining candidates in one parallel sweep.
func (s *Scheduler) GreedyView(ctx context.Context, v *engine.View, w *workload.Workload, indexes []*catalog.Index) (*Schedule, error) {
	out := &Schedule{}
	cfg := catalog.NewConfiguration()
	cur, err := workloadCost(ctx, v, w, indexes, cfg)
	if err != nil {
		return nil, err
	}
	out.BaseCost = cur

	remaining := append([]*catalog.Index(nil), indexes...)
	for len(remaining) > 0 {
		costs, err := v.SweepCandidates(ctx, w, cfg, remaining)
		if err != nil {
			return nil, err
		}
		bestI := -1
		bestRate := math.Inf(-1)
		bestCost := 0.0
		for i, ix := range remaining {
			build := BuildCost(ix, v.Stats(), v.Params())
			rate := (cur - costs[i]) / math.Max(build, 1e-9)
			if rate > bestRate {
				bestRate, bestI, bestCost = rate, i, costs[i]
			}
		}
		ix := remaining[bestI]
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
		cfg = cfg.WithIndex(ix)
		cur = bestCost
		out.Steps = append(out.Steps, Step{
			Index:     ix,
			BuildCost: BuildCost(ix, v.Stats(), v.Params()),
			CostAfter: cur,
		})
	}
	finalize(out)
	return out, nil
}

// ObliviousView computes the interaction-oblivious baseline against one
// pinned engine generation: indexes ranked once by standalone benefit per
// build cost, never re-evaluated.
func (s *Scheduler) ObliviousView(ctx context.Context, v *engine.View, w *workload.Workload, indexes []*catalog.Index) (*Schedule, error) {
	out := &Schedule{}
	empty := catalog.NewConfiguration()
	base, err := workloadCost(ctx, v, w, indexes, empty)
	if err != nil {
		return nil, err
	}
	out.BaseCost = base

	type ranked struct {
		ix   *catalog.Index
		rate float64
	}
	costs, err := v.SweepCandidates(ctx, w, empty, indexes)
	if err != nil {
		return nil, err
	}
	var order []ranked
	for i, ix := range indexes {
		build := BuildCost(ix, v.Stats(), v.Params())
		order = append(order, ranked{ix: ix, rate: (base - costs[i]) / math.Max(build, 1e-9)})
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].rate > order[j].rate })

	cfg := catalog.NewConfiguration()
	for _, r := range order {
		cfg = cfg.WithIndex(r.ix)
		c, err := workloadCost(ctx, v, w, indexes, cfg)
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, Step{
			Index:     r.ix,
			BuildCost: BuildCost(r.ix, v.Stats(), v.Params()),
			CostAfter: c,
		})
	}
	finalize(out)
	return out, nil
}

// finalize computes AUC and totals: during each build, the workload runs at
// the cost of the previously completed prefix.
func finalize(s *Schedule) {
	prev := s.BaseCost
	for _, st := range s.Steps {
		s.AUC += prev * st.BuildCost
		s.TotalBuild += st.BuildCost
		prev = st.CostAfter
	}
}
