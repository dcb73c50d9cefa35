package sqlparse

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// Conjuncts flattens a predicate tree into its top-level AND factors. A nil
// expression yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// WalkColumns invokes fn for every ColumnRef in the expression tree.
func WalkColumns(e Expr, fn func(*ColumnRef)) {
	switch v := e.(type) {
	case nil:
	case *ColumnRef:
		fn(v)
	case *Literal, *StarExpr:
	case *BinaryExpr:
		WalkColumns(v.L, fn)
		WalkColumns(v.R, fn)
	case *NotExpr:
		WalkColumns(v.E, fn)
	case *BetweenExpr:
		WalkColumns(v.E, fn)
		WalkColumns(v.Lo, fn)
		WalkColumns(v.Hi, fn)
	case *InExpr:
		WalkColumns(v.E, fn)
		for _, x := range v.List {
			WalkColumns(x, fn)
		}
	case *IsNullExpr:
		WalkColumns(v.E, fn)
	case *FuncExpr:
		if v.Arg != nil {
			WalkColumns(v.Arg, fn)
		}
	}
}

// ReferencedColumns returns, per lower-case table name, the set of
// lower-case columns a resolved statement references anywhere —
// projections, WHERE, GROUP BY, HAVING, ORDER BY — plus whether the
// statement projects a bare star. This is the per-query relevance set the
// engine's delta costing keys on: an index over columns a query never
// mentions cannot enter any of its plans.
func ReferencedColumns(sel *SelectStmt) (cols map[string]map[string]bool, star bool) {
	cols = make(map[string]map[string]bool)
	add := func(c *ColumnRef) {
		lt, lc := strings.ToLower(c.Table), strings.ToLower(c.Column)
		if cols[lt] == nil {
			cols[lt] = make(map[string]bool)
		}
		cols[lt][lc] = true
	}
	for _, p := range sel.Projections {
		if _, ok := p.Expr.(*StarExpr); ok {
			star = true
			continue
		}
		WalkColumns(p.Expr, add)
	}
	WalkColumns(sel.Where, add)
	for _, g := range sel.GroupBy {
		WalkColumns(g, add)
	}
	WalkColumns(sel.Having, add)
	for _, o := range sel.OrderBy {
		WalkColumns(o.Expr, add)
	}
	return cols, star
}

// ColumnsIn returns the distinct table-qualified columns referenced by the
// expression, as "table.column" (lower-cased), in first-seen order.
func ColumnsIn(e Expr) []string {
	seen := make(map[string]bool)
	var out []string
	WalkColumns(e, func(c *ColumnRef) {
		key := strings.ToLower(c.Table + "." + c.Column)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	})
	return out
}

// Resolve qualifies every bare column reference in the statement against
// the schema, replaces alias table names with real table names, and
// verifies every referenced column exists. Aliases remain usable in SQL
// text; after Resolve, ColumnRef.Table always holds the real table name.
func Resolve(sel *SelectStmt, schema *catalog.Schema) error {
	// Map binding (alias or name, lower-case) -> real table name.
	binding := make(map[string]string, len(sel.From))
	tables := make([]string, 0, len(sel.From))
	for _, ref := range sel.From {
		t := schema.Table(ref.Name)
		if t == nil {
			return fmt.Errorf("sqlparse: unknown table %q", ref.Name)
		}
		b := strings.ToLower(ref.Binding())
		if _, dup := binding[b]; dup {
			return fmt.Errorf("sqlparse: duplicate table binding %q", ref.Binding())
		}
		binding[b] = t.Name
		tables = append(tables, t.Name)
	}

	var resolve func(e Expr) error
	resolve = func(e Expr) error {
		switch v := e.(type) {
		case nil:
			return nil
		case *ColumnRef:
			if v.Table != "" {
				real, ok := binding[strings.ToLower(v.Table)]
				if !ok {
					return fmt.Errorf("sqlparse: unknown table or alias %q", v.Table)
				}
				v.Table = real
			} else {
				real, err := schema.ResolveColumn(v.Column, tables)
				if err != nil {
					return err
				}
				v.Table = real
			}
			t := schema.Table(v.Table)
			if !t.HasColumn(v.Column) {
				return fmt.Errorf("sqlparse: table %s has no column %q", v.Table, v.Column)
			}
			return nil
		case *Literal, *StarExpr:
			return nil
		case *BinaryExpr:
			if err := resolve(v.L); err != nil {
				return err
			}
			return resolve(v.R)
		case *NotExpr:
			return resolve(v.E)
		case *BetweenExpr:
			if err := resolve(v.E); err != nil {
				return err
			}
			if err := resolve(v.Lo); err != nil {
				return err
			}
			return resolve(v.Hi)
		case *InExpr:
			if err := resolve(v.E); err != nil {
				return err
			}
			for _, x := range v.List {
				if err := resolve(x); err != nil {
					return err
				}
			}
			return nil
		case *IsNullExpr:
			return resolve(v.E)
		case *FuncExpr:
			if v.Arg != nil {
				return resolve(v.Arg)
			}
			return nil
		default:
			return fmt.Errorf("sqlparse: unhandled expression %T", e)
		}
	}

	for i := range sel.Projections {
		if err := resolve(sel.Projections[i].Expr); err != nil {
			return err
		}
	}
	if err := resolve(sel.Where); err != nil {
		return err
	}
	for _, g := range sel.GroupBy {
		if err := resolve(g); err != nil {
			return err
		}
	}
	if err := resolve(sel.Having); err != nil {
		return err
	}
	for i := range sel.OrderBy {
		if err := resolve(sel.OrderBy[i].Expr); err != nil {
			return err
		}
	}
	return nil
}

// JoinEdge is an equality join predicate between two tables' columns.
type JoinEdge struct {
	LeftTable, LeftColumn   string
	RightTable, RightColumn string
	Pred                    Expr // the original predicate expression
}

// String renders l.t = r.t form.
func (j JoinEdge) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn)
}

// SplitPredicates classifies the WHERE conjuncts of a resolved SELECT into
// per-table filters (all columns from one table), equi-join edges, and a
// residual list of anything else (cross-table non-equi predicates).
func SplitPredicates(sel *SelectStmt) (filters map[string][]Expr, joins []JoinEdge, residual []Expr) {
	filters = make(map[string][]Expr)
	for _, conj := range Conjuncts(sel.Where) {
		tables := tablesOf(conj)
		switch len(tables) {
		case 0:
			residual = append(residual, conj) // constant predicate
		case 1:
			t := tables[0]
			filters[t] = append(filters[t], conj)
		case 2:
			if je, ok := asJoinEdge(conj); ok {
				joins = append(joins, je)
			} else {
				residual = append(residual, conj)
			}
		default:
			residual = append(residual, conj)
		}
	}
	return filters, joins, residual
}

// tablesOf returns the distinct (lower-case) table names referenced.
func tablesOf(e Expr) []string {
	seen := make(map[string]bool)
	var out []string
	WalkColumns(e, func(c *ColumnRef) {
		lt := strings.ToLower(c.Table)
		if !seen[lt] {
			seen[lt] = true
			out = append(out, lt)
		}
	})
	return out
}

// asJoinEdge recognizes col = col between two different tables.
func asJoinEdge(e Expr) (JoinEdge, bool) {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != OpEq {
		return JoinEdge{}, false
	}
	l, lok := b.L.(*ColumnRef)
	r, rok := b.R.(*ColumnRef)
	if !lok || !rok {
		return JoinEdge{}, false
	}
	if strings.EqualFold(l.Table, r.Table) {
		return JoinEdge{}, false
	}
	return JoinEdge{
		LeftTable: l.Table, LeftColumn: l.Column,
		RightTable: r.Table, RightColumn: r.Column,
		Pred: e,
	}, true
}

// SargableRef describes a simple indexable predicate col OP const.
type SargableRef struct {
	Table, Column string
	Op            BinOp         // normalized so the column is on the left
	Value         catalog.Datum // comparison constant (Lo for between)
	Hi            catalog.Datum // upper bound for BETWEEN / IN list proxies
	IsRange       bool          // true for <,<=,>,>=,BETWEEN
	IsEquality    bool          // true for = and IN
}

// SargableOf extracts an indexable reference from a single-table conjunct,
// when it has the shape column OP literal (possibly reversed), BETWEEN, or
// IN-list. Returns false for anything else.
func SargableOf(e Expr) (SargableRef, bool) {
	switch v := e.(type) {
	case *BinaryExpr:
		if !v.Op.IsComparison() {
			return SargableRef{}, false
		}
		col, colOK := v.L.(*ColumnRef)
		lit, litOK := v.R.(*Literal)
		op := v.Op
		if !colOK || !litOK {
			// try the reversed orientation: literal OP column
			col, colOK = v.R.(*ColumnRef)
			lit, litOK = v.L.(*Literal)
			if !colOK || !litOK {
				return SargableRef{}, false
			}
			op = reverseCmp(op)
		}
		if op == OpNe {
			return SargableRef{}, false
		}
		return SargableRef{
			Table: col.Table, Column: col.Column, Op: op, Value: lit.Value,
			IsRange:    op == OpLt || op == OpLe || op == OpGt || op == OpGe,
			IsEquality: op == OpEq,
		}, true
	case *BetweenExpr:
		col, colOK := v.E.(*ColumnRef)
		lo, loOK := v.Lo.(*Literal)
		hi, hiOK := v.Hi.(*Literal)
		if !colOK || !loOK || !hiOK {
			return SargableRef{}, false
		}
		return SargableRef{
			Table: col.Table, Column: col.Column, Op: OpGe,
			Value: lo.Value, Hi: hi.Value, IsRange: true,
		}, true
	case *InExpr:
		col, colOK := v.E.(*ColumnRef)
		if !colOK {
			return SargableRef{}, false
		}
		for _, item := range v.List {
			if _, ok := item.(*Literal); !ok {
				return SargableRef{}, false
			}
		}
		first := v.List[0].(*Literal)
		return SargableRef{
			Table: col.Table, Column: col.Column, Op: OpEq,
			Value: first.Value, IsEquality: true,
		}, true
	default:
		return SargableRef{}, false
	}
}

// reverseCmp flips a comparison for operand swap (a < b  <=>  b > a).
func reverseCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// GroupKeyColumns returns the GROUP BY keys that are plain column
// references, as lower-case column names in clause order, plus whether
// every group key is a plain column. Aggregate-MV matching keys on this:
// a view stores one row per distinct key combination, which is only
// well-defined when the keys are columns, not computed expressions.
func GroupKeyColumns(sel *SelectStmt) (cols []string, allPlain bool) {
	allPlain = true
	for _, g := range sel.GroupBy {
		if c, ok := g.(*ColumnRef); ok {
			cols = append(cols, strings.ToLower(c.Column))
		} else {
			allPlain = false
		}
	}
	return cols, allPlain
}

// Aggregates lists the aggregate function calls in the projection list (in
// projection order) and HAVING clause, rendered canonically ("count(*)",
// "sum(psfmag_r)", lower-case). Calls nested in arithmetic
// ("max(ra) - min(ra)") are included individually. An aggregate MV can
// answer a query only when every entry here is among its stored aggregates.
func Aggregates(sel *SelectStmt) []string {
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *FuncExpr:
			out = append(out, AggString(v))
		case *BinaryExpr:
			walk(v.L)
			walk(v.R)
		case *NotExpr:
			walk(v.E)
		}
	}
	for _, p := range sel.Projections {
		walk(p.Expr)
	}
	walk(sel.Having)
	return out
}

// AggString renders one aggregate call canonically as func(arg) or func(*),
// lower-cased. This is the string form aggregate MVs store in
// catalog.Index.Aggs, so matching is a set-membership test.
func AggString(f *FuncExpr) string {
	if f.Star || f.Arg == nil {
		return strings.ToLower(string(f.Func)) + "(*)"
	}
	if c, ok := f.Arg.(*ColumnRef); ok {
		return strings.ToLower(string(f.Func) + "(" + c.Column + ")")
	}
	return strings.ToLower(string(f.Func) + "(" + f.Arg.String() + ")")
}

// HasAggregate reports whether the statement computes any aggregate.
func HasAggregate(sel *SelectStmt) bool {
	for _, p := range sel.Projections {
		found := false
		var walk func(Expr)
		walk = func(e Expr) {
			if _, ok := e.(*FuncExpr); ok {
				found = true
			}
			switch v := e.(type) {
			case *BinaryExpr:
				walk(v.L)
				walk(v.R)
			case *NotExpr:
				walk(v.E)
			}
		}
		walk(p.Expr)
		if found {
			return true
		}
	}
	return len(sel.GroupBy) > 0
}
