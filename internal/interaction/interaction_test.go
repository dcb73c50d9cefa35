package interaction_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/interaction"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

type fixture struct {
	eng     *engine.Engine
	w       *workload.Workload
	indexes []*catalog.Index
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 81)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)

	// A hand-built workload whose queries are clearly index-friendly
	// (covering index-only scans), so the configuration lattice has real
	// cost differences for doi to measure.
	w := &workload.Workload{}
	for i, sql := range []string{
		"SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 17 AND 18",
		"SELECT type, psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 18 AND 19 AND type = 3",
		"SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14",
		"SELECT z FROM specobj WHERE z > 1.5",
		"SELECT distance FROM neighbors WHERE distance < 0.01",
	} {
		stmt, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(stmt, store.Schema); err != nil {
			t.Fatal(err)
		}
		w.Queries = append(w.Queries, workload.Query{
			ID: fmt.Sprintf("q%d", i), SQL: sql, Weight: 1, Stmt: stmt,
		})
	}

	mk := func(table string, cols ...string) *catalog.Index {
		ix, err := eng.Pin().Session().HypotheticalIndex(table, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// Designed-in interactions: the two psfmag_r indexes are substitutes
	// (either one serves q0/q2 as a covering scan); the specobj/neighbors
	// indexes are independent of them.
	indexes := []*catalog.Index{
		mk("photoobj", "psfmag_r"),
		mk("photoobj", "psfmag_r", "type"),
		mk("specobj", "z"),
		mk("neighbors", "distance"),
	}
	return &fixture{eng: eng, w: w, indexes: indexes}
}

func TestAnalyzeFindsSubstituteInteraction(t *testing.T) {
	f := newFixture(t)
	g, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, f.indexes, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The two psfmag_r indexes are substitutes: their pair must interact.
	found := false
	for _, e := range g.Edges {
		a, b := g.Indexes[e.A].Key(), g.Indexes[e.B].Key()
		if (a == "photoobj(psfmag_r)" && b == "photoobj(psfmag_r,type)") ||
			(b == "photoobj(psfmag_r)" && a == "photoobj(psfmag_r,type)") {
			found = true
			if e.Doi <= 0 {
				t.Errorf("substitute pair doi = %f, want > 0", e.Doi)
			}
		}
	}
	if !found {
		t.Fatalf("substitute pair not in graph; edges:\n%s", g.Render(100))
	}
}

func TestDoiSymmetricAndDeterministic(t *testing.T) {
	f := newFixture(t)
	g1, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, f.indexes, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, f.indexes, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatalf("nondeterministic edge count: %d vs %d", len(g1.Edges), len(g2.Edges))
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, g1.Edges[i], g2.Edges[i])
		}
	}
	// Edges store a < b: symmetric representation.
	for _, e := range g1.Edges {
		if e.A >= e.B {
			t.Fatalf("edge not canonical: %+v", e)
		}
		if e.Doi < 0 {
			t.Fatalf("negative doi: %+v", e)
		}
	}
}

func TestTopKFilter(t *testing.T) {
	f := newFixture(t)
	g, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, f.indexes, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) == 0 {
		t.Skip("no edges to filter")
	}
	top1 := g.TopK(1)
	if len(top1) != 1 {
		t.Fatalf("TopK(1) = %d edges", len(top1))
	}
	for _, e := range g.Edges {
		if e.Doi > top1[0].Doi {
			t.Fatal("TopK(1) is not the max edge")
		}
	}
	if len(g.TopK(1000)) != len(g.Edges) {
		t.Fatal("TopK beyond size must return all edges")
	}
}

func TestStableSubsets(t *testing.T) {
	f := newFixture(t)
	g, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, f.indexes, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// With a huge threshold every index is its own stable subset.
	all := g.StableSubsets(1e18)
	if len(all) != len(f.indexes) {
		t.Fatalf("threshold inf: %d subsets, want %d", len(all), len(f.indexes))
	}
	// With threshold 0 (and at least one edge) some subsets merge.
	if len(g.Edges) > 0 {
		some := g.StableSubsets(1e-12)
		if len(some) >= len(f.indexes) {
			t.Fatalf("threshold ~0 should merge interacting indexes: %d subsets", len(some))
		}
	}
	// Subsets partition the index set.
	seen := map[int]bool{}
	for _, grp := range g.StableSubsets(0.1) {
		for _, i := range grp {
			if seen[i] {
				t.Fatalf("index %d in two subsets", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(f.indexes) {
		t.Fatalf("partition covers %d of %d indexes", len(seen), len(f.indexes))
	}
}

func TestDOTAndRender(t *testing.T) {
	f := newFixture(t)
	g, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, f.indexes, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT(10)
	if !strings.HasPrefix(dot, "graph interactions {") || !strings.Contains(dot, "n0") {
		t.Fatalf("malformed DOT:\n%s", dot)
	}
	txt := g.Render(10)
	if txt == "" {
		t.Fatal("empty render")
	}
}

func TestAnalyzeSmallSets(t *testing.T) {
	f := newFixture(t)
	g, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, f.indexes[:1], interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 0 {
		t.Fatal("single index cannot interact")
	}
	g0, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, nil, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g0.Edges) != 0 {
		t.Fatal("empty set cannot interact")
	}
}

func TestMatrixRendering(t *testing.T) {
	f := newFixture(t)
	g, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, f.indexes, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := g.Matrix()
	// Header lists every index, diagonal is "-", and any discovered edge
	// appears as a numeric cell.
	for i := range f.indexes {
		if !strings.Contains(m, fmt.Sprintf("[%2d]", i)) {
			t.Fatalf("matrix missing row %d:\n%s", i, m)
		}
	}
	if !strings.Contains(m, "-") {
		t.Fatalf("matrix missing diagonal:\n%s", m)
	}
	if len(g.Edges) > 0 {
		want := fmt.Sprintf("%.3f", g.Edges[0].Doi)
		if !strings.Contains(m, want) {
			t.Fatalf("matrix missing doi cell %s despite %d edges:\n%s", want, len(g.Edges), m)
		}
	}
	// Empty graph renders gracefully.
	empty, err := interaction.AnalyzeView(context.Background(), f.eng.Pin(), f.w, nil, interaction.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if empty.Matrix() == "" {
		t.Fatal("empty matrix render")
	}
}
