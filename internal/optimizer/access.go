package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/sqlparse"
)

// TableAccess is the per-table access summary INUM plugs into cached plans:
// the cheapest way to deliver one table's rows (optionally in a required
// order) under the environment's configuration.
type TableAccess struct {
	Node *Node
	// Cost is the access cost including any sort needed to satisfy the
	// required order.
	Cost float64
	// Sorted reports whether an explicit sort was added on top of the path.
	Sorted bool
}

// AccessContext caches the per-query analysis (predicate split, needed
// columns) so repeated access costings — INUM's configuration sweep — skip
// re-analysis. Build once with PrepareAccess, reuse across configurations.
type AccessContext struct {
	Filters map[string][]sqlparse.Expr
	Needed  map[string]map[string]bool
	Star    bool
}

// PrepareAccess analyzes a resolved query once for repeated BestAccessWith
// calls.
func (e *Env) PrepareAccess(sel *sqlparse.SelectStmt) *AccessContext {
	filters, _, _ := sqlparse.SplitPredicates(sel)
	needed, star := neededColumns(sel)
	return &AccessContext{
		Filters: filters,
		Needed:  needed,
		Star:    star,
	}
}

// BestAccessWith computes the cheapest access path for one base table of a
// resolved query (analyzed once by PrepareAccess) under e.Config,
// optionally required to deliver the given sort order. It runs only
// single-table path generation — no join search — which is what makes
// INUM's configuration sweep orders of magnitude cheaper than full
// re-optimization (experiment E8).
func (e *Env) BestAccessWith(ctx *AccessContext, table string, required []OrderKey) (TableAccess, error) {
	if e.Schema.Table(table) == nil {
		return TableAccess{}, fmt.Errorf("optimizer: unknown table %q", table)
	}
	lt := strings.ToLower(table)
	var wanted [][]OrderKey
	if len(required) > 0 {
		wanted = append(wanted, required)
	}
	paths := e.scanPaths(lt, ctx.Filters[lt], ctx.Needed[lt], ctx.Star, wanted)
	if len(paths) == 0 {
		return TableAccess{}, fmt.Errorf("optimizer: no access path for table %q", table)
	}
	if len(required) == 0 {
		p := cheapest(paths)
		return TableAccess{Node: p, Cost: p.TotalCost}, nil
	}
	// Prefer a path that already delivers the order; otherwise sort the
	// cheapest one.
	var ordered *Node
	for _, p := range paths {
		if orderSatisfies(p.Order, required) && (ordered == nil || p.TotalCost < ordered.TotalCost) {
			ordered = p
		}
	}
	cheap := cheapest(paths)
	_, sortTotal := e.Params.sortCost(cheap.EstRows)
	sortedCost := cheap.TotalCost + sortTotal
	if ordered != nil && ordered.TotalCost <= sortedCost {
		return TableAccess{Node: ordered, Cost: ordered.TotalCost}, nil
	}
	return TableAccess{Node: cheap, Cost: sortedCost, Sorted: true}, nil
}

// ScanCostTotal sums the total costs of all leaf scan nodes in a plan. The
// difference between the plan total and this sum is INUM's "internal" cost:
// joins, sorts, aggregation — everything that does not depend on which
// access paths implement the leaves.
func ScanCostTotal(root *Node) float64 {
	var total float64
	root.Walk(func(n *Node) {
		switch n.Kind {
		case NodeSeqScan, NodeIndexScan, NodeIndexOnlyScan:
			if n.ParamOuterColumn != "" {
				// A parameterized inner scan's cost is charged per loop by
				// its join; treat it as part of the join (internal) cost.
				return
			}
			total += n.TotalCost
		}
	})
	return total
}

// LeafOrders reports, per table, the sort order each leaf scan delivers in
// the plan (nil when unordered). INUM keys its plan cache on this vector.
func LeafOrders(root *Node, tables []string) map[string][]OrderKey {
	out := make(map[string][]OrderKey, len(tables))
	root.Walk(func(n *Node) {
		switch n.Kind {
		case NodeSeqScan, NodeIndexScan, NodeIndexOnlyScan:
			if n.ParamOuterColumn != "" {
				return
			}
			out[strings.ToLower(n.Table)] = n.Order
		}
	})
	return out
}
