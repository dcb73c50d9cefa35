package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/catalog"
)

func TestParseSimpleSelect(t *testing.T) {
	sel, err := ParseSelect("SELECT a, b FROM t WHERE a = 1 AND b > 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Projections) != 2 || len(sel.From) != 1 {
		t.Fatalf("unexpected shape: %+v", sel)
	}
	conj := Conjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %d, want 2", len(conj))
	}
}

func TestParseJoinFoldsOnIntoWhere(t *testing.T) {
	sel, err := ParseSelect(
		"SELECT p.a FROM p JOIN q ON p.id = q.pid WHERE q.x < 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.From) != 2 {
		t.Fatalf("from = %d, want 2", len(sel.From))
	}
	conj := Conjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %d, want 2 (ON folded into WHERE)", len(conj))
	}
}

func TestParseCommaJoin(t *testing.T) {
	sel, err := ParseSelect("SELECT * FROM a, b WHERE a.x = b.y")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.From) != 2 {
		t.Fatalf("from = %d, want 2", len(sel.From))
	}
}

func TestParseAliases(t *testing.T) {
	sel, err := ParseSelect("SELECT p.objid AS o FROM photoobj p")
	if err != nil {
		t.Fatal(err)
	}
	if sel.From[0].Alias != "p" || sel.From[0].Name != "photoobj" {
		t.Fatalf("alias parse failed: %+v", sel.From[0])
	}
	if sel.Projections[0].Alias != "o" {
		t.Fatalf("projection alias = %q", sel.Projections[0].Alias)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	sel, err := ParseSelect(
		"SELECT type, COUNT(*), AVG(mag) FROM t WHERE mag < 20 GROUP BY type HAVING COUNT(*) > 5 ORDER BY type DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatal("group/having missing")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Fatal("order by missing or not desc")
	}
	if sel.Limit != 10 {
		t.Fatalf("limit = %d", sel.Limit)
	}
	if !HasAggregate(sel) {
		t.Fatal("HasAggregate should be true")
	}
}

func TestParseBetweenInIsNull(t *testing.T) {
	sel, err := ParseSelect(
		"SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3) AND c IS NOT NULL AND NOT (d = 2)")
	if err != nil {
		t.Fatal(err)
	}
	conj := Conjuncts(sel.Where)
	if len(conj) != 4 {
		t.Fatalf("conjuncts = %d, want 4", len(conj))
	}
	if _, ok := conj[0].(*BetweenExpr); !ok {
		t.Errorf("conj[0] = %T, want Between", conj[0])
	}
	if _, ok := conj[1].(*InExpr); !ok {
		t.Errorf("conj[1] = %T, want In", conj[1])
	}
	if _, ok := conj[2].(*IsNullExpr); !ok {
		t.Errorf("conj[2] = %T, want IsNull", conj[2])
	}
	if _, ok := conj[3].(*NotExpr); !ok {
		t.Errorf("conj[3] = %T, want Not", conj[3])
	}
}

func TestParsePrecedence(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top op = %v, want OR", sel.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right of OR = %v, want AND", or.R)
	}
}

func TestParseArithmetic(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t WHERE a - b > 0.5 AND a * 2 < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(Conjuncts(sel.Where)) != 2 {
		t.Fatal("expected 2 conjuncts")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t WHERE dec BETWEEN -25.5 AND -20")
	if err != nil {
		t.Fatal(err)
	}
	btw := Conjuncts(sel.Where)[0].(*BetweenExpr)
	lo := btw.Lo.(*Literal)
	if lo.Value.Kind != catalog.KindFloat || lo.Value.F != -25.5 {
		t.Fatalf("lo = %v", lo.Value)
	}
	hi := btw.Hi.(*Literal)
	if hi.Value.Kind != catalog.KindInt || hi.Value.I != -20 {
		t.Fatalf("hi = %v", hi.Value)
	}
}

func TestParseStringLiteralEscapes(t *testing.T) {
	sel, err := ParseSelect("SELECT a FROM t WHERE s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	eq := sel.Where.(*BinaryExpr)
	if lit := eq.R.(*Literal); lit.Value.S != "it's" {
		t.Fatalf("string = %q", lit.Value.S)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a = ",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t WHERE s = 'unterminated",
		"CREATE VIEW v",
		"SELECT a FROM t trailing garbage ,",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseDDL(t *testing.T) {
	stmt, err := Parse("CREATE TABLE t (a BIGINT, b DOUBLE, c VARCHAR(32), PRIMARY KEY (a))")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if len(ct.Columns) != 3 || len(ct.PrimaryKey) != 1 {
		t.Fatalf("%+v", ct)
	}
	if ct.Columns[2].Type != catalog.KindString {
		t.Fatalf("varchar type = %v", ct.Columns[2].Type)
	}

	stmt, err = Parse("CREATE UNIQUE INDEX i ON t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndexStmt)
	if !ci.Unique || len(ci.Columns) != 2 || ci.Table != "t" {
		t.Fatalf("%+v", ci)
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (a BIGINT);
		-- a comment
		SELECT a FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("stmts = %d, want 2", len(stmts))
	}
}

func TestStringRoundTrip(t *testing.T) {
	inputs := []string{
		"SELECT a, b FROM t WHERE a = 1 AND b > 2",
		"SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 5",
		"SELECT type, COUNT(*) FROM t GROUP BY type",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 5",
	}
	for _, sql := range inputs {
		s1, err := ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		s2, err := ParseSelect(s1.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Errorf("round trip unstable:\n%s\n%s", s1, s2)
		}
	}
}

func testSchema() *catalog.Schema {
	s := catalog.NewSchema()
	s.MustAddTable(catalog.MustTable("p", []catalog.Column{
		{Name: "id", Type: catalog.KindInt},
		{Name: "x", Type: catalog.KindFloat},
	}, "id"))
	s.MustAddTable(catalog.MustTable("q", []catalog.Column{
		{Name: "pid", Type: catalog.KindInt},
		{Name: "y", Type: catalog.KindFloat},
	}))
	return s
}

func TestResolveQualifiesBareColumns(t *testing.T) {
	sel, err := ParseSelect("SELECT x, y FROM p, q WHERE id = pid")
	if err != nil {
		t.Fatal(err)
	}
	if err := Resolve(sel, testSchema()); err != nil {
		t.Fatal(err)
	}
	cols := ColumnsIn(sel.Where)
	want := map[string]bool{"p.id": true, "q.pid": true}
	for _, c := range cols {
		if !want[c] {
			t.Errorf("unexpected column %q", c)
		}
	}
}

func TestResolveAlias(t *testing.T) {
	sel, err := ParseSelect("SELECT a.x FROM p a WHERE a.id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if err := Resolve(sel, testSchema()); err != nil {
		t.Fatal(err)
	}
	col := sel.Projections[0].Expr.(*ColumnRef)
	if col.Table != "p" {
		t.Fatalf("alias not replaced: %q", col.Table)
	}
}

func TestResolveErrors(t *testing.T) {
	for _, sql := range []string{
		"SELECT x FROM nosuch",
		"SELECT nosuchcol FROM p",
		"SELECT z.x FROM p",
		"SELECT x FROM p, p", // duplicate binding
	} {
		sel, err := ParseSelect(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if err := Resolve(sel, testSchema()); err == nil {
			t.Errorf("Resolve(%q) should fail", sql)
		}
	}
}

func TestSplitPredicates(t *testing.T) {
	sel, err := ParseSelect(
		"SELECT p.x FROM p, q WHERE p.id = q.pid AND p.x > 1 AND q.y < 2 AND p.x + q.y > 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := Resolve(sel, testSchema()); err != nil {
		t.Fatal(err)
	}
	filters, joins, residual := SplitPredicates(sel)
	if len(filters["p"]) != 1 || len(filters["q"]) != 1 {
		t.Fatalf("filters = %v", filters)
	}
	if len(joins) != 1 || joins[0].String() != "p.id = q.pid" {
		t.Fatalf("joins = %v", joins)
	}
	if len(residual) != 1 {
		t.Fatalf("residual = %v", residual)
	}
}

func TestSargableOf(t *testing.T) {
	sel, err := ParseSelect(
		"SELECT x FROM p WHERE id = 5 AND x > 2 AND 3 <= x AND x BETWEEN 1 AND 9 AND id IN (1,2)")
	if err != nil {
		t.Fatal(err)
	}
	conj := Conjuncts(sel.Where)
	sr, ok := SargableOf(conj[0])
	if !ok || !sr.IsEquality || sr.Column != "id" {
		t.Fatalf("conj0: %+v ok=%v", sr, ok)
	}
	sr, ok = SargableOf(conj[1])
	if !ok || !sr.IsRange || sr.Op != OpGt {
		t.Fatalf("conj1: %+v", sr)
	}
	// Reversed literal comparison: 3 <= x means x >= 3.
	sr, ok = SargableOf(conj[2])
	if !ok || sr.Op != OpGe {
		t.Fatalf("conj2: %+v", sr)
	}
	sr, ok = SargableOf(conj[3])
	if !ok || sr.Hi.IsNull() {
		t.Fatalf("conj3 between: %+v", sr)
	}
	sr, ok = SargableOf(conj[4])
	if !ok || !sr.IsEquality {
		t.Fatalf("conj4 in: %+v", sr)
	}
	// Non-sargable: column vs column.
	nsel, _ := ParseSelect("SELECT x FROM p WHERE x = id")
	if _, ok := SargableOf(nsel.Where); ok {
		t.Fatal("x = id should not be sargable")
	}
}

// TestAndAllInverseOfConjuncts: Conjuncts flattens the parser's AND chain
// back into its factors.
func TestAndAllInverseOfConjuncts(t *testing.T) {
	sel, _ := ParseSelect("SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3")
	if len(Conjuncts(sel.Where)) != 3 {
		t.Fatal("Conjuncts lost conjuncts")
	}
}

func TestLexerComments(t *testing.T) {
	sel, err := ParseSelect("SELECT a -- trailing comment\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.From) != 1 {
		t.Fatal("comment handling broke FROM")
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE ^")
	if err == nil || !strings.Contains(err.Error(), "sql:2:") {
		t.Fatalf("error should carry line info, got %v", err)
	}
}
