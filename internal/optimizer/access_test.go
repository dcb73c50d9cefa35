package optimizer_test

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
)

func resolvedStmt(t *testing.T, env *optimizer.Env, sql string) *sqlparse.SelectStmt {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := sqlparse.Resolve(sel, env.Schema); err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestBestTableAccessUnordered(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "objid"))
	env := envBase.WithConfig(cfg)
	sel := resolvedStmt(t, env, "SELECT objid, ra FROM photoobj WHERE objid = 1000005")

	acc, err := env.BestAccessWith(env.PrepareAccess(sel), "photoobj", nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Node.Kind != optimizer.NodeIndexScan && acc.Node.Kind != optimizer.NodeIndexOnlyScan {
		t.Fatalf("selective point lookup should use the index, got %s", acc.Node.Kind)
	}
	if acc.Cost <= 0 || acc.Sorted {
		t.Fatalf("acc = %+v", acc)
	}
}

func TestBestTableAccessWithRequiredOrder(t *testing.T) {
	envBase := testEnv(t, nil)
	sel := resolvedStmt(t, envBase, "SELECT objid, ra FROM photoobj WHERE psfmag_r < 30")
	want := []optimizer.OrderKey{{Table: "photoobj", Column: "ra"}}

	// Without any index the order can only come from an explicit sort.
	acc, err := envBase.BestAccessWith(envBase.PrepareAccess(sel), "photoobj", want)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Sorted {
		t.Fatalf("no index: expected sorted access, got %+v", acc)
	}
	// With an index on ra, the ordered path should win for cheap orders.
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "photoobj", "ra"))
	env := envBase.WithConfig(cfg)
	acc2, err := env.BestAccessWith(env.PrepareAccess(sel), "photoobj", want)
	if err != nil {
		t.Fatal(err)
	}
	if acc2.Cost > acc.Cost {
		t.Fatalf("index order option should not cost more: %f vs %f", acc2.Cost, acc.Cost)
	}
}

func TestBestTableAccessUnknownTable(t *testing.T) {
	env := testEnv(t, nil)
	sel := resolvedStmt(t, env, "SELECT objid FROM photoobj")
	if _, err := env.BestAccessWith(env.PrepareAccess(sel), "nosuch", nil); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestScanCostTotalAndLeafOrders(t *testing.T) {
	envBase := testEnv(t, nil)
	cfg := catalog.NewConfiguration().WithIndex(hypoIndex(envBase, "specobj", "bestobjid"))
	env := envBase.WithConfig(cfg)
	sel := resolvedStmt(t, env,
		"SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 0.5")
	plan, err := env.Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	scans := optimizer.ScanCostTotal(plan.Root)
	if scans <= 0 || scans > plan.TotalCost() {
		t.Fatalf("scan cost %f out of range (total %f)", scans, plan.TotalCost())
	}
	orders := optimizer.LeafOrders(plan.Root, []string{"photoobj", "specobj"})
	if len(orders) == 0 {
		t.Fatal("no leaf orders reported")
	}
}

func TestNodeCloneIsDeep(t *testing.T) {
	env := testEnv(t, nil)
	sel := resolvedStmt(t, env, "SELECT objid FROM photoobj WHERE objid = 1 ORDER BY ra")
	plan, err := env.Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	clone := plan.Root.Clone()
	clone.Walk(func(n *optimizer.Node) { n.TotalCost = -1 })
	ok := true
	plan.Root.Walk(func(n *optimizer.Node) {
		if n.TotalCost == -1 {
			ok = false
		}
	})
	if !ok {
		t.Fatal("Clone shares nodes with the original")
	}
	if plan.EstRows() < 0 {
		t.Fatal("EstRows broken")
	}
}

func TestNodeKindStrings(t *testing.T) {
	kinds := []optimizer.NodeKind{
		optimizer.NodeSeqScan, optimizer.NodeIndexScan, optimizer.NodeIndexOnlyScan,
		optimizer.NodeNestLoop, optimizer.NodeHashJoin, optimizer.NodeMergeJoin,
		optimizer.NodeSort, optimizer.NodeHashAgg, optimizer.NodeLimit, optimizer.NodeProject,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if !strings.Contains(optimizer.NodeKind(99).String(), "99") {
		t.Fatal("unknown kind should render its number")
	}
}

func TestOrderKeyAndAggSpecStrings(t *testing.T) {
	k := optimizer.OrderKey{Table: "t", Column: "c", Desc: true}
	if k.String() != "t.c DESC" {
		t.Fatalf("OrderKey = %q", k.String())
	}
	a := optimizer.AggSpec{Func: sqlparse.AggCount, Star: true}
	if a.String() != "COUNT(*)" {
		t.Fatalf("AggSpec = %q", a.String())
	}
}
