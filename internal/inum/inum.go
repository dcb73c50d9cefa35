// Package inum implements the INUM cache-based cost model (§3.2.1): for
// each workload query it caches a small set of optimizer plan "templates" —
// the plan internals (joins, sorts, aggregation) computed once per
// combination of interesting leaf orders — and prices an arbitrary
// configuration by plugging per-table access costs into the cached
// templates instead of re-running the full optimizer. This is what makes
// CoPhy's candidate sweep and the interaction analyzer's configuration
// lattice walks feasible ("speeds up the cost estimation process by orders
// of magnitude", paper §1; experiment E8).
//
// The cache is additionally keyed by the partition layouts in play — the
// paper's extension of INUM "to cache table partitions and partial plans"
// (§3.3): access costs are partition-aware, while cached internals are
// reused across layouts.
package inum

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
)

// maxTemplatesPerQuery bounds the cached plan templates per query.
const maxTemplatesPerQuery = 24

// maxOrderCombos bounds the interesting-order cross product explored during
// Prepare.
const maxOrderCombos = 16

// template is one cached plan skeleton: the internal (non-leaf) cost and
// the leaf order each table must deliver for the internals to be valid.
type template struct {
	orders   map[string][]optimizer.OrderKey // per table; nil = any order
	internal float64
	sig      string
}

// CachedQuery holds the INUM state for one query.
type CachedQuery struct {
	ID     string
	Stmt   *sqlparse.SelectStmt
	Tables []string
	// sql is the canonical rendering of Stmt, captured at build time so
	// Prepare can detect ID collisions across workloads without
	// re-rendering the cached side.
	sql string

	templates []template
	// accessCtx is the one-time query analysis reused by every costing.
	accessCtx *optimizer.AccessContext
	// memo caches per-table access costs keyed by
	// table|order|index-subset|layout signature: most CostFor calls in a
	// configuration sweep become pure map lookups, which is where INUM's
	// orders-of-magnitude speedup comes from. The memo is sharded into
	// lock-striped segments selected by key hash, so 8-16 sweep workers
	// hitting the same query entry do not serialize on a single mutex;
	// hits take only the segment's read lock.
	memo [memoShards]memoShard
	// prepOptimizerCalls counts the full optimizations spent in Prepare;
	// amortized over every subsequent CostFor call.
	prepOptimizerCalls int
}

// memoShards is the stripe count of the per-query access-cost memo. Key
// space per query is small (tables × orders × design signatures), so 16
// stripes keep collision probability low without bloating CachedQuery.
const memoShards = 16

// memoShard is one lock stripe of the access-cost memo.
type memoShard struct {
	mu sync.RWMutex
	m  map[string]float64
}

// memoIndex hashes a memo key (FNV-1a) onto its stripe.
func memoIndex(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % memoShards)
}

// memoGet reads a memoized access cost.
func (q *CachedQuery) memoGet(key string) (float64, bool) {
	s := &q.memo[memoIndex(key)]
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// memoPut stores a memoized access cost. Racing writers store the same
// value: the cost is a pure function of the key within one generation.
func (q *CachedQuery) memoPut(key string, v float64) {
	s := &q.memo[memoIndex(key)]
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// Cache is the INUM store for a workload.
type Cache struct {
	base *optimizer.Env

	mu      sync.RWMutex
	entries map[string]*CachedQuery
	// inflight holds the builds under way, by query ID: a concurrent
	// missing Prepare waits for the build instead of running the full
	// optimizer a second time.
	inflight map[string]*pendingBuild

	// Telemetry for the E8 experiment.
	fullOptimizations atomic.Int64
	cachedCostings    atomic.Int64
}

// New creates an INUM cache over the base environment (schema, stats, cost
// params). The base configuration inside env is ignored; configurations are
// supplied per costing call.
func New(env *optimizer.Env) *Cache {
	return &Cache{base: env, entries: make(map[string]*CachedQuery), inflight: make(map[string]*pendingBuild)}
}

// pendingBuild is one in-flight Prepare build; q and err are set before
// done closes.
type pendingBuild struct {
	stmt *sqlparse.SelectStmt
	done chan struct{}
	q    *CachedQuery
	err  error
}

// Stats reports how many full optimizations and cached costings the cache
// has performed.
func (c *Cache) Stats() (fullOpts, cachedCostings int64) {
	return c.fullOptimizations.Load(), c.cachedCostings.Load()
}

// Prepare populates the cache for one query. candidates are the indexes the
// caller intends to sweep over (e.g. CoPhy's candidate set); they guide
// which interesting orders get a template. Prepare is idempotent per
// (ID, statement): an existing entry is returned only if it was built for
// the same statement — a different statement under a reused ID (two
// workloads both numbering their queries q0, q1, ... against one
// long-lived engine) rebuilds and replaces the entry instead of silently
// pricing the new query with the old query's plans. Concurrent callers
// that miss on the same ID wait for the one build under way, so a query is
// optimized once however many sweep workers reach it together.
func (c *Cache) Prepare(id string, stmt *sqlparse.SelectStmt, candidates []*catalog.Index) (*CachedQuery, error) {
	c.mu.RLock()
	if q, ok := c.entries[id]; ok && q.matches(stmt) {
		c.mu.RUnlock()
		return q, nil
	}
	c.mu.RUnlock()

	for {
		c.mu.Lock()
		if q, ok := c.entries[id]; ok && q.matches(stmt) {
			c.mu.Unlock()
			return q, nil
		}
		p := c.inflight[id]
		if p == nil {
			break // c.mu stays held: claim the build below
		}
		c.mu.Unlock()
		<-p.done
		if p.stmt == stmt || p.stmt.String() == stmt.String() {
			return p.q, p.err
		}
		// Another statement was being built under this ID; build ours next.
	}
	p := &pendingBuild{stmt: stmt, done: make(chan struct{})}
	c.inflight[id] = p
	c.mu.Unlock()

	p.q, p.err = c.build(id, stmt, candidates)
	c.mu.Lock()
	delete(c.inflight, id)
	if p.err == nil {
		c.entries[id] = p.q
	}
	c.mu.Unlock()
	close(p.done)
	return p.q, p.err
}

// matches reports whether the entry was built for this statement: same
// pointer (the common case — one workload reuses its parsed statements for
// every costing), or identical canonical SQL (a re-parsed workload).
func (q *CachedQuery) matches(stmt *sqlparse.SelectStmt) bool {
	return q.Stmt == stmt || q.sql == stmt.String()
}

// Get returns the cached entry, or nil.
func (c *Cache) Get(id string) *CachedQuery {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries[id]
}

// EvictPrefix removes every cached entry whose query ID starts with prefix
// and reports how many were dropped. Components that namespace their
// entries (e.g. the online tuner) use this to release their share of a
// long-lived shared cache.
func (c *Cache) EvictPrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id := range c.entries {
		if strings.HasPrefix(id, prefix) {
			delete(c.entries, id)
			n++
		}
	}
	return n
}

// build computes the template set for a query.
func (c *Cache) build(id string, stmt *sqlparse.SelectStmt, candidates []*catalog.Index) (*CachedQuery, error) {
	tables := make([]string, 0, len(stmt.From))
	for _, ref := range stmt.From {
		t := c.base.Schema.Table(ref.Name)
		if t == nil {
			return nil, fmt.Errorf("inum: unknown table %q", ref.Name)
		}
		tables = append(tables, strings.ToLower(t.Name))
	}
	q := &CachedQuery{
		ID: id, Stmt: stmt, Tables: tables, sql: stmt.String(),
		accessCtx: c.base.PrepareAccess(stmt),
	}
	for i := range q.memo {
		q.memo[i].m = make(map[string]float64)
	}

	// Seed configurations, following INUM's interesting-order structure:
	// the plan internals only change when a leaf can deliver an order the
	// upper plan exploits (merge-join keys, ORDER BY). So we optimize under
	// (a) no indexes, (b) all candidates on the query's tables, and (c) one
	// singleton config per candidate whose leading column is an interesting
	// order column. Everything else reuses these internals with plugged
	// access costs.
	seeds := []*catalog.Configuration{catalog.NewConfiguration()}
	allCand := catalog.NewConfiguration()
	tset := make(map[string]bool, len(tables))
	for _, t := range tables {
		tset[t] = true
	}
	for _, ix := range candidates {
		// Aggregate views never participate in templates: their plans are
		// whole-query rewrites whose MVScan leaf is not a table scan, so
		// internal = total - ScanCostTotal would absorb the leaf cost and
		// corrupt the template. CostFor prices them separately.
		if ix.Kind == catalog.KindAggView {
			continue
		}
		if tset[strings.ToLower(ix.Table)] {
			allCand = allCand.WithIndex(ix)
		}
	}
	if len(allCand.Indexes) > 0 {
		seeds = append(seeds, allCand)
	}
	interesting := interestingOrderColumns(stmt)
	for _, ix := range allCand.Indexes {
		lt := strings.ToLower(ix.Table)
		if interesting[lt] != nil && interesting[lt][strings.ToLower(ix.LeadingColumn())] {
			seeds = append(seeds, catalog.NewConfiguration().WithIndex(ix))
			if len(seeds) >= maxOrderCombos {
				break
			}
		}
	}

	seen := make(map[string]bool)
	for _, cfg := range seeds {
		if err := c.addTemplate(q, cfg, seen); err != nil {
			return nil, err
		}
	}
	if len(q.templates) == 0 {
		return nil, fmt.Errorf("inum: no templates built for %s", id)
	}
	// Deterministic template order: by signature.
	sort.Slice(q.templates, func(a, b int) bool { return q.templates[a].sig < q.templates[b].sig })
	return q, nil
}

// addTemplate optimizes the query under cfg and records the resulting plan
// skeleton if its leaf-order signature is new.
func (c *Cache) addTemplate(q *CachedQuery, cfg *catalog.Configuration, seen map[string]bool) error {
	env := c.base.WithConfig(cfg)
	plan, err := env.Optimize(q.Stmt)
	if err != nil {
		return fmt.Errorf("inum: %s: %w", q.ID, err)
	}
	q.prepOptimizerCalls++
	c.fullOptimizations.Add(1)

	orders := optimizer.LeafOrders(plan.Root, q.Tables)
	internal := plan.TotalCost() - optimizer.ScanCostTotal(plan.Root)
	if internal < 0 {
		internal = 0
	}
	tpl := template{orders: map[string][]optimizer.OrderKey{}, internal: internal}
	var sigParts []string
	for _, t := range q.Tables {
		o := orders[t]
		// Only the order is part of the template contract; trim to the
		// leading key, which is what joins and ORDER BY consume.
		if len(o) > 0 {
			o = o[:1]
		}
		tpl.orders[t] = o
		if len(o) > 0 {
			sigParts = append(sigParts, t+":"+o[0].Column)
		} else {
			sigParts = append(sigParts, t+":-")
		}
	}
	tpl.sig = strings.Join(sigParts, "|")
	if seen[tpl.sig] {
		// Keep the cheaper internals for an existing signature.
		for i := range q.templates {
			if q.templates[i].sig == tpl.sig && tpl.internal < q.templates[i].internal {
				q.templates[i].internal = tpl.internal
			}
		}
		return nil
	}
	seen[tpl.sig] = true
	if len(q.templates) < maxTemplatesPerQuery {
		q.templates = append(q.templates, tpl)
	}
	return nil
}

// CostFor prices the query under an arbitrary configuration using cached
// templates: min over templates of internal + Σ per-table access costs.
// Access costs are memoized on (table, required order, the table's index
// subset, partition layout), so sweeps over many configurations that share
// per-table designs resolve almost entirely from the memo.
func (c *Cache) CostFor(q *CachedQuery, cfg *catalog.Configuration) (float64, error) {
	c.cachedCostings.Add(1)
	env := c.base.WithConfig(cfg)

	// Per-table design signatures for memo keys, computed once per call.
	tblSig := make(map[string]string, len(q.Tables))
	for _, t := range q.Tables {
		tblSig[t] = cfg.TableSignature(t)
	}

	best := -1.0
	for ti := range q.templates {
		tpl := &q.templates[ti]
		total := tpl.internal
		feasible := true
		for _, t := range q.Tables {
			cost, err := c.accessCost(q, env, t, tpl, tblSig[t])
			if err != nil {
				feasible = false
				break
			}
			total += cost
		}
		if !feasible {
			continue
		}
		if best < 0 || total < best {
			best = total
		}
	}
	// Aggregate views compete as whole-query rewrites (matching what the
	// full optimizer does), memoized on the table's design signature. The
	// guard keeps plain-index sweeps on the exact pre-existing hot path.
	if len(q.Tables) == 1 && cfg.HasAggView(q.Tables[0]) {
		key := "mv|" + q.Tables[0] + "|" + tblSig[q.Tables[0]]
		mvCost, ok := q.memoGet(key)
		if !ok {
			mvCost = env.BestMVRewriteCost(q.Stmt)
			q.memoPut(key, mvCost)
		}
		if mvCost >= 0 && (best < 0 || mvCost < best) {
			best = mvCost
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("inum: no feasible template for %s", q.ID)
	}
	return best, nil
}

// accessCost returns the memoized per-table access cost for a template.
func (c *Cache) accessCost(q *CachedQuery, env *optimizer.Env, table string, tpl *template, designSig string) (float64, error) {
	orderSig := "-"
	if o := tpl.orders[table]; len(o) > 0 {
		orderSig = o[0].Column
	}
	key := table + "|" + orderSig + "|" + designSig
	if v, ok := q.memoGet(key); ok {
		return v, nil
	}

	acc, err := env.BestAccessWith(q.accessCtx, table, tpl.orders[table])
	if err != nil {
		return 0, err
	}
	q.memoPut(key, acc.Cost)
	return acc.Cost, nil
}

// interestingOrderColumns returns, per table, the columns whose sort order
// the plan internals can exploit: equi-join endpoints and the leading ORDER
// BY column (INUM's interesting orders).
func interestingOrderColumns(stmt *sqlparse.SelectStmt) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	add := func(table, column string) {
		lt, lc := strings.ToLower(table), strings.ToLower(column)
		if out[lt] == nil {
			out[lt] = make(map[string]bool)
		}
		out[lt][lc] = true
	}
	_, joins, _ := sqlparse.SplitPredicates(stmt)
	for _, j := range joins {
		add(j.LeftTable, j.LeftColumn)
		add(j.RightTable, j.RightColumn)
	}
	if len(stmt.OrderBy) > 0 {
		if col, ok := stmt.OrderBy[0].Expr.(*sqlparse.ColumnRef); ok {
			add(col.Table, col.Column)
		}
	}
	return out
}

// FullCost bypasses the cache and runs the complete optimizer — the
// comparison baseline for E8 and the fallback for exactness checks.
func (c *Cache) FullCost(q *CachedQuery, cfg *catalog.Configuration) (float64, error) {
	c.fullOptimizations.Add(1)
	return c.base.WithConfig(cfg).Cost(q.Stmt)
}

// TemplateCount reports how many plan skeletons are cached for a query.
func (q *CachedQuery) TemplateCount() int { return len(q.templates) }

// PrepCost reports the number of full optimizations Prepare spent.
func (q *CachedQuery) PrepCost() int { return q.prepOptimizerCalls }
