package autopart_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/autopart"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

type fixture struct {
	eng    *engine.Engine
	schema *catalog.Schema
	adv    *autopart.Advisor
	w      *workload.Workload
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 71)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(store.Schema, store.Stats, nil)
	// A photometry-heavy workload: narrow column sets over the wide table.
	w, err := workload.NewWorkloadFrom(store.Schema, 72, 12, []workload.Template{
		*workload.TemplateByName("cone_search"),
		*workload.TemplateByName("bright_stars"),
		*workload.TemplateByName("mag_range"),
		*workload.TemplateByName("ra_slice"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		eng:    eng,
		schema: store.Schema,
		adv:    autopart.New(eng),
		w:      w,
	}
}

func TestAdviseVerticalImprovesWideTableWorkload(t *testing.T) {
	f := newFixture(t)
	res, err := f.adv.AdviseView(context.Background(), f.eng.Pin(), f.w, nil, autopart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NewCost >= res.BaselineCost {
		t.Fatalf("partitioning should help: %f -> %f", res.BaselineCost, res.NewCost)
	}
	v := res.Config.VerticalOn("photoobj")
	if v == nil {
		t.Fatal("photoobj should be vertically partitioned for this workload")
	}
	if len(v.Fragments) < 2 {
		t.Fatalf("expected >=2 fragments, got %d", len(v.Fragments))
	}
	// The narrow workload touches few columns; the improvement should be
	// substantial for scan-bound queries (the E11 claim).
	if res.Improvement() < 0.2 {
		t.Errorf("improvement = %.1f%%, expected >= 20%% on a wide table", res.Improvement()*100)
	}
	// Every non-PK column appears in exactly one fragment.
	seen := map[string]int{}
	for _, frag := range v.Fragments {
		for _, c := range frag {
			seen[c]++
		}
	}
	tab := f.schema.Table("photoobj")
	for _, col := range tab.Columns {
		lc := strings.ToLower(col.Name)
		if lc == "objid" {
			continue // PK replicated implicitly
		}
		if seen[lc] != 1 {
			t.Errorf("column %s in %d fragments, want 1", lc, seen[lc])
		}
	}
}

func TestAdviseSkipsUnhelpfulTables(t *testing.T) {
	f := newFixture(t)
	res, err := f.adv.AdviseView(context.Background(), f.eng.Pin(), f.w, nil, autopart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The workload never touches specobj/neighbors: no layouts for them.
	if res.Config.VerticalOn("specobj") != nil {
		t.Error("specobj should remain unpartitioned")
	}
	if res.Config.VerticalOn("neighbors") != nil {
		t.Error("neighbors should remain unpartitioned")
	}
}

func TestHorizontalPartitioning(t *testing.T) {
	f := newFixture(t)
	opts := autopart.DefaultOptions()
	res, err := f.adv.AdviseView(context.Background(), f.eng.Pin(), f.w, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The cone_search/ra_slice templates range-filter ra and dec heavily; a
	// horizontal layout on one of them should be adopted (vertical already
	// shrinks scans, so horizontal may or may not clear the bar — accept
	// either, but verify coherence when present).
	if h := res.Config.HorizontalOn("photoobj"); h != nil {
		if h.Column != "ra" && h.Column != "dec" {
			t.Errorf("horizontal column = %s, want ra or dec", h.Column)
		}
		if h.FragmentCount() < 2 {
			t.Error("degenerate horizontal layout")
		}
		// Bounds must be sorted.
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i].Less(h.Bounds[i-1]) {
				t.Error("horizontal bounds not sorted")
			}
		}
	}
}

func TestRewriteQuery(t *testing.T) {
	f := newFixture(t)
	cfg := catalog.NewConfiguration()
	var rest []string
	for _, c := range f.schema.Table("photoobj").Columns {
		lc := strings.ToLower(c.Name)
		if lc != "ra" && lc != "dec" && lc != "objid" {
			rest = append(rest, lc)
		}
	}
	cfg.SetVertical(&catalog.VerticalLayout{
		Table:     "photoobj",
		Fragments: [][]string{{"dec", "ra"}, rest},
	})

	sel, err := sqlparse.ParseSelect("SELECT objid, ra FROM photoobj WHERE ra BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, f.schema); err != nil {
		t.Fatal(err)
	}
	sql, changed := autopart.RewriteQuery(sel, f.schema, cfg)
	if !changed {
		t.Fatal("query should be rewritten")
	}
	if !strings.Contains(sql, "photoobj__f0") {
		t.Fatalf("rewritten SQL missing fragment table: %s", sql)
	}
	// Only fragment 0 is needed: no PK join should appear.
	if strings.Contains(sql, "photoobj__f1") {
		t.Fatalf("unneeded fragment joined: %s", sql)
	}

	// A query spanning two fragments must join them on the PK.
	sel2, err := sqlparse.ParseSelect("SELECT ra, psfmag_r FROM photoobj WHERE psfmag_r < 15")
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel2, f.schema); err != nil {
		t.Fatal(err)
	}
	sql2, changed2 := autopart.RewriteQuery(sel2, f.schema, cfg)
	if !changed2 {
		t.Fatal("two-fragment query should be rewritten")
	}
	if !strings.Contains(sql2, "photoobj__f0.objid = photoobj__f1.objid") {
		t.Fatalf("missing PK stitch join: %s", sql2)
	}
}

func TestRewriteNoLayoutPassthrough(t *testing.T) {
	f := newFixture(t)
	sel, err := sqlparse.ParseSelect("SELECT objid FROM photoobj WHERE objid = 5")
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, f.schema); err != nil {
		t.Fatal(err)
	}
	sql, changed := autopart.RewriteQuery(sel, f.schema, catalog.NewConfiguration())
	if changed {
		t.Fatal("no layout: must not rewrite")
	}
	if sql != sel.String() {
		t.Fatalf("passthrough altered SQL: %s", sql)
	}
}

func TestAdviseWithIndexesAsBase(t *testing.T) {
	f := newFixture(t)
	base := catalog.NewConfiguration().WithIndex(&catalog.Index{
		Name: "h", Table: "photoobj", Columns: []string{"ra"},
		Hypothetical: true, EstimatedPages: 50, EstimatedHeight: 2,
	})
	res, err := f.adv.AdviseView(context.Background(), f.eng.Pin(), f.w, base, autopart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.HasIndex("photoobj(ra)") {
		t.Fatal("base indexes must be preserved in the result config")
	}
	if res.NewCost > res.BaselineCost {
		t.Fatalf("cost should not regress: %f -> %f", res.BaselineCost, res.NewCost)
	}
}
