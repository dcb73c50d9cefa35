package autopilot_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/autopilot"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	store, err := workload.Generate(workload.TinySize(), 101)
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(store.Schema, store.Stats, nil)
}

// stream builds a deterministic two-phase query stream where single-column
// indexes genuinely help (same shape as the colt tests).
func stream(t *testing.T, eng *engine.Engine, n int, phase2 bool) []workload.Query {
	t.Helper()
	var sqls []string
	if !phase2 {
		sqls = []string{
			"SELECT psfmag_r FROM photoobj WHERE psfmag_r BETWEEN 17 AND 18",
			"SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14",
		}
	} else {
		sqls = []string{
			"SELECT z FROM specobj WHERE z > 1.2",
			"SELECT distance FROM neighbors WHERE distance < 0.01",
		}
	}
	var out []workload.Query
	for i := 0; i < n; i++ {
		sql := sqls[i%len(sqls)]
		stmt, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparse.Resolve(stmt, eng.Schema()); err != nil {
			t.Fatal(err)
		}
		out = append(out, workload.Query{
			ID: fmt.Sprintf("%s#%d", sql, i), SQL: sql, Weight: 1, Stmt: stmt,
		})
	}
	return out
}

func testOptions() autopilot.Options {
	opts := autopilot.DefaultOptions()
	opts.Colt.EpochLength = 10
	opts.BuildBudgetPages = 64
	opts.ProbationEpochs = 2
	opts.RegretCandidates = 6
	return opts
}

func TestAutopilotBuildsAndRegretConverges(t *testing.T) {
	eng := newEngine(t)
	ap, err := autopilot.New(eng, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()

	if _, err := ap.ObserveAll(context.Background(), stream(t, eng, 80, false)); err != nil {
		t.Fatal(err)
	}

	st := ap.Status()
	if st.BuildsCompleted == 0 {
		t.Fatalf("no builds completed: %+v", st)
	}
	if !ap.Current().HasIndex("photoobj(psfmag_r)") {
		t.Fatalf("autopilot did not materialize photoobj(psfmag_r); live=%v", st.LiveIndexes)
	}
	reg := ap.Regret()
	if len(reg) < 4 {
		t.Fatalf("too few regret samples: %d", len(reg))
	}
	first, last := reg[0], reg[len(reg)-1]
	if last.RegretPct > first.RegretPct && last.RegretPct > 5 {
		t.Fatalf("regret did not converge: first=%.2f%% last=%.2f%%", first.RegretPct, last.RegretPct)
	}
	if last.RegretPct > 5 {
		t.Fatalf("final regret %.2f%% above the 5%% oracle gap", last.RegretPct)
	}

	// The decision journal tells the whole story in order: an adopt must
	// precede the materialization of the same index.
	decisions := ap.Decisions(0)
	adopted := map[string]bool{}
	for _, d := range decisions {
		switch d.Kind {
		case autopilot.KindAdopt:
			adopted[d.Index] = true
		case autopilot.KindMaterialized:
			if !adopted[d.Index] {
				t.Fatalf("materialized %s without a preceding adopt: %v", d.Index, decisions)
			}
		}
	}
	for i := 1; i < len(decisions); i++ {
		if decisions[i].Seq != decisions[i-1].Seq+1 {
			t.Fatalf("decision seq not dense: %d then %d", decisions[i-1].Seq, decisions[i].Seq)
		}
	}
}

func TestAutopilotThrottlesBuilds(t *testing.T) {
	eng := newEngine(t)
	opts := testOptions()
	opts.BuildBudgetPages = 12 // small budget: builds must span several epochs
	ap, err := autopilot.New(eng, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	if _, err := ap.ObserveAll(context.Background(), stream(t, eng, 150, false)); err != nil {
		t.Fatal(err)
	}
	var progress, materialized int
	for _, d := range ap.Decisions(0) {
		switch d.Kind {
		case autopilot.KindBuildProgress:
			progress++
			if d.PagesBuilt >= d.PagesTotal {
				t.Fatalf("progress decision at completion: %+v", d)
			}
		case autopilot.KindMaterialized:
			materialized++
		}
	}
	if progress == 0 {
		t.Fatal("a 3-page budget must leave at least one build mid-flight across epochs")
	}
	if materialized == 0 {
		t.Fatal("build never completed despite 15 epochs of budget")
	}
}

func TestAutopilotRollsBackUnderperformingIndex(t *testing.T) {
	eng := newEngine(t)
	opts := testOptions()
	ap, err := autopilot.New(eng, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()

	// Induce a bad choice: an index on a column the stream never touches,
	// with an inflated what-if promise it cannot possibly honor.
	ix, err := eng.Pin().Session().HypotheticalIndex("neighbors", "distance")
	if err != nil {
		t.Fatal(err)
	}
	ap.Adopt(ix, 1e6)

	qs := stream(t, eng, 80, false) // photoobj-only traffic
	if _, err := ap.ObserveAll(context.Background(), qs); err != nil {
		t.Fatal(err)
	}

	var materializedAt, rolledBackAt = -1, -1
	for _, d := range ap.Decisions(0) {
		if d.Index != ix.Key() {
			continue
		}
		switch d.Kind {
		case autopilot.KindMaterialized:
			materializedAt = d.Epoch
		case autopilot.KindRollback:
			rolledBackAt = d.Epoch
			if d.Measured >= d.Promised*(1-opts.RollbackMargin) {
				t.Fatalf("rollback fired above the margin: %+v", d)
			}
		}
	}
	if materializedAt < 0 {
		t.Fatal("induced index never materialized")
	}
	if rolledBackAt < 0 {
		t.Fatalf("underperforming index was not rolled back: %+v", ap.Decisions(0))
	}
	if rolledBackAt > materializedAt+opts.ProbationEpochs {
		t.Fatalf("rollback at epoch %d, outside the %d-epoch probation after %d",
			rolledBackAt, opts.ProbationEpochs, materializedAt)
	}
	if ap.Current().HasIndex(ix.Key()) {
		t.Fatal("rolled-back index still live")
	}
	st := ap.Status()
	if st.Rollbacks != 1 {
		t.Fatalf("rollback counter = %d", st.Rollbacks)
	}
	if _, held := st.Cooldown[ix.Key()]; !held {
		t.Fatal("rolled-back index not in cooldown")
	}
}

// TestAutopilotKillRestartResumesIdentically is the persistence contract:
// kill mid-stream (mid-epoch, even), restart from the state file on a
// fresh engine, and every subsequent decision must match an uninterrupted
// reference run exactly.
func TestAutopilotKillRestartResumesIdentically(t *testing.T) {
	opts := testOptions()

	full := func(t *testing.T, cut int, statePath string) ([]autopilot.Decision, []autopilot.RegretPoint, string) {
		eng := newEngine(t)
		qs := stream(t, eng, 40, false)
		qs = append(qs, stream(t, eng, 35, true)...)
		o := opts
		o.StatePath = statePath
		ap, err := autopilot.New(eng, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if cut > 0 {
			if _, err := ap.ObserveAll(context.Background(), qs[:cut]); err != nil {
				t.Fatal(err)
			}
			if err := ap.Save(); err != nil {
				t.Fatal(err)
			}
			// Simulated kill: abandon the first process entirely and bring
			// up a new one (fresh engine, empty caches) from the snapshot.
			eng2 := newEngine(t)
			qs2 := stream(t, eng2, 40, false)
			qs2 = append(qs2, stream(t, eng2, 35, true)...)
			ap2, err := autopilot.New(eng2, nil, o)
			if err != nil {
				t.Fatal(err)
			}
			defer ap2.Close()
			if !ap2.Status().Resumed {
				t.Fatal("second process did not resume from state")
			}
			if _, err := ap2.ObserveAll(context.Background(), qs2[cut:]); err != nil {
				t.Fatal(err)
			}
			return ap2.Decisions(0), ap2.Regret(), ap2.Current().Signature()
		}
		defer ap.Close()
		if _, err := ap.ObserveAll(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
		return ap.Decisions(0), ap.Regret(), ap.Current().Signature()
	}

	refDec, refReg, refSig := full(t, 0, "")
	const cut = 35 // mid-epoch: 3 full epochs + 5 queries
	gotDec, gotReg, gotSig := full(t, cut, filepath.Join(t.TempDir(), "autopilot.json"))

	if gotSig != refSig {
		t.Fatalf("final configuration diverged after restart: %s != %s", gotSig, refSig)
	}
	if !reflect.DeepEqual(refDec, gotDec) {
		t.Fatalf("decision journals diverged:\nref: %+v\ngot: %+v", refDec, gotDec)
	}
	if !reflect.DeepEqual(refReg, gotReg) {
		t.Fatalf("regret trajectories diverged:\nref: %+v\ngot: %+v", refReg, gotReg)
	}
}

func TestAutopilotDecisionCursor(t *testing.T) {
	eng := newEngine(t)
	ap, err := autopilot.New(eng, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	var streamed []autopilot.Decision
	ap.OnDecision(func(d autopilot.Decision) { streamed = append(streamed, d) })
	if _, err := ap.ObserveAll(context.Background(), stream(t, eng, 60, false)); err != nil {
		t.Fatal(err)
	}
	all := ap.Decisions(0)
	if len(all) == 0 {
		t.Fatal("no decisions")
	}
	if !reflect.DeepEqual(all, streamed) {
		t.Fatal("OnDecision stream diverged from the journal")
	}
	mid := all[len(all)/2].Seq
	tail := ap.Decisions(mid)
	if len(tail) != len(all)-len(all)/2-1 {
		t.Fatalf("cursor read returned %d decisions, want %d", len(tail), len(all)-len(all)/2-1)
	}
	for _, d := range tail {
		if d.Seq <= mid {
			t.Fatalf("cursor %d returned stale decision %d", mid, d.Seq)
		}
	}
	if got := ap.Decisions(ap.Status().LastSeq); len(got) != 0 {
		t.Fatalf("cursor at head returned %d decisions", len(got))
	}
}

// TestAutopilotConcurrentReaders exercises the lock under the race
// detector: observation continues while telemetry is read concurrently.
func TestAutopilotConcurrentReaders(t *testing.T) {
	eng := newEngine(t)
	ap, err := autopilot.New(eng, nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	qs := stream(t, eng, 60, false)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = ap.Status()
				_ = ap.Decisions(0)
				_ = ap.Regret()
				_ = ap.Current()
			}
		}()
	}
	if _, err := ap.ObserveAll(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
}
