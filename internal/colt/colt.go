// Package colt implements COLT-style continuous on-line index tuning
// (Schnaitter et al., SIGMOD 2006; paper §3.2.2): a lightweight monitor
// that watches the incoming query stream, profiles promising single-column
// indexes with a bounded what-if budget, and proposes (or applies) a new
// configuration at epoch boundaries when the expected speedup clears a
// threshold — emitting the alert messages the demo's Scenario 3 shows.
//
// Faithful to COLT, the tuner:
//
//   - restricts itself to single-column candidate indexes extracted from
//     the stream's predicates and join columns;
//   - tiers candidates (cold → hot) and spends its per-epoch what-if budget
//     only on hot ones, with cheap derivative estimates for the rest;
//   - self-regulates: consecutive stable epochs shrink the profiling
//     budget, a configuration change restores it;
//   - respects a space budget when selecting the materialized set.
package colt

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/schedule"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// Options tune the online tuner.
type Options struct {
	// EpochLength is the number of observed queries per tuning epoch.
	EpochLength int
	// SpaceBudgetPages caps the materialized index footprint (0 =
	// unlimited).
	SpaceBudgetPages int64
	// WhatIfBudget is the maximum number of what-if costings per epoch.
	WhatIfBudget int
	// EWMAAlpha is the smoothing factor for per-candidate benefit.
	EWMAAlpha float64
	// AdoptThreshold is the minimum relative epoch-cost gain required to
	// change the configuration.
	AdoptThreshold float64
	// AutoMaterialize applies proposed changes immediately; otherwise the
	// tuner only alerts (the DBA decides, as the paper describes).
	AutoMaterialize bool
	// HotPromotionObservations is how many sightings move a candidate from
	// cold to hot.
	HotPromotionObservations int
	// ChargeBuildCost makes adoption pay for materialization: a new index
	// is only adopted when its projected benefit over BuildHorizonEpochs
	// epochs exceeds its estimated build cost. This is COLT's guard
	// against thrashing on short-lived workload shifts.
	ChargeBuildCost bool
	// BuildHorizonEpochs is the amortization horizon (default 5).
	BuildHorizonEpochs int
}

// DefaultOptions returns the tuner defaults.
func DefaultOptions() Options {
	return Options{
		EpochLength:              25,
		WhatIfBudget:             200,
		EWMAAlpha:                0.4,
		AdoptThreshold:           0.02,
		AutoMaterialize:          true,
		HotPromotionObservations: 2,
	}
}

// Alert is the message COLT raises when a better configuration exists.
type Alert struct {
	Epoch           int
	Added           []*catalog.Index
	Dropped         []*catalog.Index
	ExpectedBenefit float64 // estimated epoch-cost reduction
	EpochCost       float64 // epoch cost under the outgoing configuration
	Applied         bool
	// Scores holds the projected per-epoch benefit of every index in the
	// proposed configuration, keyed by Index.Key(). Supervisors (autopilot)
	// use the per-index promise as the yardstick a materialized index is
	// later measured against. Treat as read-only: alert copies share it.
	Scores map[string]float64
}

// String renders the alert.
func (a Alert) String() string {
	var add, drop []string
	for _, ix := range a.Added {
		add = append(add, ix.Key())
	}
	for _, ix := range a.Dropped {
		drop = append(drop, ix.Key())
	}
	return fmt.Sprintf("epoch %d: +[%s] -[%s] expected benefit %.1f (%.1f%% of epoch cost)",
		a.Epoch, strings.Join(add, ", "), strings.Join(drop, ", "),
		a.ExpectedBenefit, 100*a.ExpectedBenefit/math.Max(a.EpochCost, 1e-9))
}

// EpochReport summarizes one tuning epoch for dashboards and benchmarks.
type EpochReport struct {
	Epoch         int
	Queries       int
	EpochCost     float64 // Σ estimated query costs under the live config
	WhatIfCalls   int
	ConfigChanged bool
	IndexKeys     []string
}

// candState tracks one candidate index.
type candState struct {
	ix            *catalog.Index
	observations  int
	lastSeenEpoch int
	hot           bool
	ewmaBenefit   float64 // per-relevant-query benefit estimate
	epochRelevant int     // queries this epoch the candidate was relevant to
}

// tunerSeq distinguishes tuners sharing one engine (see Tuner.idPrefix).
var tunerSeq atomic.Int64

// Tuner is the online tuning engine.
type Tuner struct {
	eng  *engine.Engine
	opts Options
	// idPrefix namespaces this tuner's INUM entries in the shared engine
	// cache: stream query IDs may collide with an offline workload's (both
	// are commonly q0..qN for different SQL), and INUM's Prepare is
	// idempotent per ID.
	idPrefix string

	current    *catalog.Configuration
	candidates map[string]*candState

	epoch           int
	queriesInEpoch  int
	epochCost       float64
	whatIfUsed      int
	budgetThisEpoch int
	stableEpochs    int

	alerts  []Alert
	reports []EpochReport
	onAlert func(Alert)
}

// New creates a tuner over the shared costing engine. initial may be nil
// (no indexes).
func New(eng *engine.Engine, initial *catalog.Configuration, opts Options) *Tuner {
	if opts.EpochLength <= 0 {
		opts.EpochLength = 25
	}
	if opts.EWMAAlpha <= 0 || opts.EWMAAlpha > 1 {
		opts.EWMAAlpha = 0.4
	}
	if opts.HotPromotionObservations <= 0 {
		opts.HotPromotionObservations = 2
	}
	if initial == nil {
		initial = catalog.NewConfiguration()
	}
	return &Tuner{
		eng:             eng,
		opts:            opts,
		idPrefix:        fmt.Sprintf("colt%d|", tunerSeq.Add(1)),
		current:         initial.Clone(),
		candidates:      make(map[string]*candState),
		budgetThisEpoch: opts.WhatIfBudget,
	}
}

// Close releases the tuner's INUM entries from the shared engine cache.
// Call it when retiring a tuner on a long-lived designer so dead tuners'
// cached templates do not accumulate; the tuner must not be used after.
func (t *Tuner) Close() int { return t.eng.EvictPrefix(t.idPrefix) }

// OnAlert registers a callback invoked for every alert.
func (t *Tuner) OnAlert(fn func(Alert)) { t.onAlert = fn }

// Current returns (a copy of) the live configuration.
func (t *Tuner) Current() *catalog.Configuration { return t.current.Clone() }

// SetCurrent replaces the live configuration. External supervisors that own
// materialization (autopilot) drive the tuner with AutoMaterialize off and
// publish each build/rollback here so subsequent observations are priced
// under what is actually on disk. A configuration change restores the
// profiling budget, mirroring the self-regulation rule in endEpoch.
func (t *Tuner) SetCurrent(cfg *catalog.Configuration) {
	if cfg == nil {
		cfg = catalog.NewConfiguration()
	}
	t.current = cfg.Clone()
	t.stableEpochs = 0
	t.budgetThisEpoch = t.opts.WhatIfBudget
}

// Epoch returns the number of completed tuning epochs.
func (t *Tuner) Epoch() int { return t.epoch }

// Options returns the tuner's effective options (after defaulting).
func (t *Tuner) Options() Options { return t.opts }

// Alerts returns a copy of all alerts raised so far.
func (t *Tuner) Alerts() []Alert { return append([]Alert(nil), t.alerts...) }

// Reports returns a copy of the per-epoch summaries.
func (t *Tuner) Reports() []EpochReport { return append([]EpochReport(nil), t.reports...) }

// Observe feeds one query through the tuner: candidate extraction, benefit
// profiling within the what-if budget, and epoch accounting. It returns the
// query's estimated cost under the live configuration. A cancelled context
// aborts before any pricing and returns ctx.Err().
func (t *Tuner) Observe(ctx context.Context, q workload.Query) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// Pin one generation per observation, and cost under the tuner's
	// namespace so shared-engine entries for other components (or other
	// tuners) can never alias this query's ID.
	v := t.eng.Pin()
	nq := q
	nq.ID = t.idPrefix + q.ID
	curCost, err := v.QueryCost(nq, t.current)
	if err != nil {
		return 0, err
	}
	t.epochCost += curCost * q.Weight

	// Candidate extraction: single-column indexes from sargable predicates
	// and join endpoints.
	for _, spec := range extractCandidates(q.Stmt) {
		key := spec.key()
		st, ok := t.candidates[key]
		if !ok {
			ix := t.sizedIndex(v, spec.table, spec.column)
			if ix == nil {
				continue
			}
			st = &candState{ix: ix}
			t.candidates[key] = st
		}
		st.observations++
		st.lastSeenEpoch = t.epoch
		st.epochRelevant++
		if !st.hot && st.observations >= t.opts.HotPromotionObservations {
			st.hot = true
		}
		// Profile hot candidates against this query within budget. No
		// ctx check inside the loop: a query is observed atomically or not
		// at all, so epoch accounting (epochCost, queriesInEpoch) can never
		// tear; ObserveAll and Run cancel between queries.
		if st.hot && t.whatIfUsed < t.budgetThisEpoch {
			if t.current.HasIndex(st.ix.Key()) {
				continue // already materialized; benefit captured in curCost
			}
			withIx, err := v.QueryCost(nq, t.current.WithIndex(st.ix))
			if err != nil {
				return 0, err
			}
			t.whatIfUsed++
			benefit := math.Max(curCost-withIx, 0) * q.Weight
			st.ewmaBenefit = t.opts.EWMAAlpha*benefit + (1-t.opts.EWMAAlpha)*st.ewmaBenefit
		}
	}

	t.queriesInEpoch++
	if t.queriesInEpoch >= t.opts.EpochLength {
		if err := t.endEpoch(v); err != nil {
			return 0, err
		}
	}
	return curCost, nil
}

// ObserveAll feeds a whole stream and returns the total estimated cost
// experienced (queries priced under whatever configuration was live when
// they arrived). A cancelled context aborts between queries.
func (t *Tuner) ObserveAll(ctx context.Context, qs []workload.Query) (float64, error) {
	var total float64
	for _, q := range qs {
		c, err := t.Observe(ctx, q)
		if err != nil {
			return 0, err
		}
		total += c * q.Weight
	}
	return total, nil
}

// endEpoch re-selects the materialized set and alerts on change, sizing
// builds against the observation's pinned view.
func (t *Tuner) endEpoch(v *engine.View) error {
	report := EpochReport{
		Epoch:       t.epoch,
		Queries:     t.queriesInEpoch,
		EpochCost:   t.epochCost,
		WhatIfCalls: t.whatIfUsed,
	}

	// Rank candidates by projected epoch benefit (ewma per relevant query
	// times this epoch's relevance), then greedy-knapsack under the space
	// budget.
	type scored struct {
		st    *candState
		score float64
	}
	var ranked []scored
	for _, st := range t.candidates {
		if st.epochRelevant == 0 && t.epoch-st.lastSeenEpoch > 2 {
			st.ewmaBenefit *= 0.5 // decay stale candidates
		}
		score := st.ewmaBenefit * float64(st.epochRelevant)
		if score > 1e-9 {
			ranked = append(ranked, scored{st: st, score: score})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].st.ix.Key() < ranked[j].st.ix.Key()
	})

	proposed := catalog.NewConfiguration()
	var used int64
	var expectedBenefit float64
	scores := make(map[string]float64)
	for _, r := range ranked {
		pages := r.st.ix.EstimatedPages
		if t.opts.SpaceBudgetPages > 0 && used+pages > t.opts.SpaceBudgetPages {
			continue
		}
		proposed = proposed.WithIndex(r.st.ix)
		used += pages
		expectedBenefit += r.score
		scores[r.st.ix.Key()] = r.score
	}

	changed := proposed.Signature() != t.current.Signature()
	// Adoption gate: the projected gain must clear the threshold relative
	// to the epoch's cost. Dropping to a subset with no expected benefit
	// loss is always allowed (frees space).
	adopt := changed && expectedBenefit >= t.opts.AdoptThreshold*math.Max(t.epochCost, 1e-9)
	if changed && len(proposed.Indexes) < len(t.current.Indexes) && expectedBenefit == 0 {
		adopt = true
	}
	// Materialization-cost guard: new indexes must pay for their builds
	// within the amortization horizon.
	if adopt && t.opts.ChargeBuildCost {
		horizon := t.opts.BuildHorizonEpochs
		if horizon <= 0 {
			horizon = 5
		}
		var buildCost float64
		for _, ix := range diffIndexes(proposed, t.current) {
			buildCost += schedule.BuildCost(ix, v.Stats(), v.Params())
		}
		if buildCost > 0 && expectedBenefit*float64(horizon) < buildCost {
			adopt = false
		}
	}

	if adopt {
		alert := Alert{
			Epoch:           t.epoch,
			Added:           diffIndexes(proposed, t.current),
			Dropped:         diffIndexes(t.current, proposed),
			ExpectedBenefit: expectedBenefit,
			EpochCost:       t.epochCost,
			Applied:         t.opts.AutoMaterialize,
			Scores:          scores,
		}
		t.alerts = append(t.alerts, alert)
		if t.onAlert != nil {
			t.onAlert(alert)
		}
		if t.opts.AutoMaterialize {
			t.current = proposed
			report.ConfigChanged = true
		}
		t.stableEpochs = 0
		t.budgetThisEpoch = t.opts.WhatIfBudget
	} else {
		// Self-regulation: a stable system profiles less.
		t.stableEpochs++
		if t.stableEpochs >= 2 && t.budgetThisEpoch > t.opts.WhatIfBudget/8 {
			t.budgetThisEpoch /= 2
		}
	}

	for _, key := range sortedIndexKeys(t.current) {
		report.IndexKeys = append(report.IndexKeys, key)
	}
	t.reports = append(t.reports, report)

	// Reset epoch state.
	t.epoch++
	t.queriesInEpoch = 0
	t.epochCost = 0
	t.whatIfUsed = 0
	for _, st := range t.candidates {
		st.epochRelevant = 0
	}
	return nil
}

// sizedIndex builds a single-column hypothetical index with realistic size.
func (t *Tuner) sizedIndex(v *engine.View, table, column string) *catalog.Index {
	tab := t.eng.Schema().Table(table)
	if tab == nil || !tab.HasColumn(column) {
		return nil
	}
	ts := v.Stats().Table(table)
	rows := int64(1000)
	if ts != nil {
		rows = ts.RowCount
	}
	pages := optimizer.EstimateIndexLeafPages(tab, []string{column}, rows)
	return &catalog.Index{
		Name:            "colt_" + strings.ToLower(table) + "_" + strings.ToLower(column),
		Table:           tab.Name,
		Columns:         []string{strings.ToLower(column)},
		Hypothetical:    true,
		EstimatedPages:  int64(pages),
		EstimatedHeight: optimizer.EstimateIndexHeight(pages),
	}
}

// candSpec identifies a single-column candidate.
type candSpec struct{ table, column string }

func (c candSpec) key() string { return c.table + "(" + c.column + ")" }

// extractCandidates pulls single-column index candidates from a query.
func extractCandidates(sel *sqlparse.SelectStmt) []candSpec {
	seen := map[string]bool{}
	var out []candSpec
	add := func(table, column string) {
		c := candSpec{table: strings.ToLower(table), column: strings.ToLower(column)}
		if !seen[c.key()] {
			seen[c.key()] = true
			out = append(out, c)
		}
	}
	filters, joins, _ := sqlparse.SplitPredicates(sel)
	for table, conjs := range filters {
		for _, conj := range conjs {
			if sr, ok := sqlparse.SargableOf(conj); ok {
				add(table, sr.Column)
			}
		}
	}
	for _, j := range joins {
		add(j.LeftTable, j.LeftColumn)
		add(j.RightTable, j.RightColumn)
	}
	if len(sel.OrderBy) > 0 {
		if col, ok := sel.OrderBy[0].Expr.(*sqlparse.ColumnRef); ok {
			add(col.Table, col.Column)
		}
	}
	return out
}

// diffIndexes returns indexes in a but not in b.
func diffIndexes(a, b *catalog.Configuration) []*catalog.Index {
	var out []*catalog.Index
	for _, ix := range a.Indexes {
		if !b.HasIndex(ix.Key()) {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func sortedIndexKeys(cfg *catalog.Configuration) []string {
	keys := make([]string, 0, len(cfg.Indexes))
	for _, ix := range cfg.Indexes {
		keys = append(keys, ix.Key())
	}
	sort.Strings(keys)
	return keys
}
