package designer

import (
	"fmt"
	"strings"
)

// ExplainAnalysis pairs the optimizer's view of a query with its actual
// execution: the EXPLAIN-ANALYZE of this engine.
type ExplainAnalysis struct {
	PlanText string
	// EstimatedCost is the optimizer's total cost (cost units).
	EstimatedCost float64
	// EstimatedRows is the optimizer's cardinality estimate.
	EstimatedRows float64
	// ActualRows is the number of rows the execution produced.
	ActualRows int
	// IO is the measured logical page I/O.
	IO IOStats
}

// String renders the analysis.
func (e *ExplainAnalysis) String() string {
	var b strings.Builder
	b.WriteString(strings.TrimRight(e.PlanText, "\n") + "\n")
	fmt.Fprintf(&b, "estimated: cost=%.2f rows=%.0f\n", e.EstimatedCost, e.EstimatedRows)
	fmt.Fprintf(&b, "actual:    rows=%d %s\n", e.ActualRows, e.IO.String())
	return b.String()
}

// ExplainAnalyze plans the query under the materialized design, executes
// it, and reports estimated versus actual figures — the calibration view
// that backs the "estimated-vs-executed" substitution argument.
func (d *Designer) ExplainAnalyze(q Query) (*ExplainAnalysis, error) {
	if err := q.valid(); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	plan, err := d.eng.Pin().Optimize(q.stmt, d.store.MaterializedConfiguration())
	if err != nil {
		return nil, err
	}
	res, err := d.exec.Run(plan)
	if err != nil {
		return nil, err
	}
	return &ExplainAnalysis{
		PlanText:      plan.Explain(),
		EstimatedCost: plan.TotalCost(),
		EstimatedRows: plan.EstRows(),
		ActualRows:    len(res.Rows),
		IO:            ioFromInternal(res.IO),
	}, nil
}
