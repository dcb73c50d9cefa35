package main

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/designer"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// The tests in this file pin defects in the designer that the
// benchmark's correctness checks ran into. They fail until the designer is
// fixed; README.md says how the benchmark's workloads are shaped around
// them meanwhile.

// TestConcurrentAdviceMatchesSerial: two clients advising different
// workloads at once must each get the design a lone client gets. Today the
// designer numbers every workload's queries q0, q1, ... and the shared INUM
// cache keys entries by that number, so a concurrent advise replaces the
// other's entries mid-run and prices its queries with the wrong plans.
func TestConcurrentAdviceMatchesSerial(t *testing.T) {
	d, err := designer.OpenSDSS("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 10
	work := make([]*designer.Workload, n)
	serial := make([]float64, n)
	for k := range work {
		cyc, err := in.cycle(k)
		if err != nil {
			t.Fatal(err)
		}
		if work[k], err = d.WorkloadFromSQL(cyc.sql); err != nil {
			t.Fatal(err)
		}
		a, err := d.Advise(ctx, work[k], designer.AdviceOptions{Interactions: true})
		if err != nil {
			t.Fatal(err)
		}
		serial[k] = a.Solver.Objective
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := c; k < n; k += 2 {
					a, err := d.Advise(ctx, work[k], designer.AdviceOptions{Interactions: true})
					if err != nil {
						t.Error(err)
						return
					}
					if math.Float64bits(a.Solver.Objective) != math.Float64bits(serial[k]) {
						t.Errorf("workload %d: objective %v next to another advise, %v alone", k, a.Solver.Objective, serial[k])
					}
				}
			}(c)
		}
		wg.Wait()
	}
}

// TestReadviseMatchesColdAdvice: DesignSession.ReAdvise documents that its
// result is exactly what Advise returns for the same inputs. When several
// designs share the optimal objective, the warm-started solve can return a
// different one than a cold solve: same objective, different indexes.
func TestReadviseMatchesColdAdvice(t *testing.T) {
	d, err := designer.OpenSDSS("small", 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := in.cycle(0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.WorkloadFromSQL(cyc.sql)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := d.NewDesignSession()
	if _, err := s.Advise(ctx, w, designer.AdviceOptions{Partitions: true, Interactions: true}); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{100, 200} {
		opts := designer.AdviceOptions{StorageBudgetPages: budget, Interactions: true}
		warm, _, err := s.ReAdvise(ctx, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := d.Advise(ctx, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(keysOf(warm), keysOf(cold)) || warm.Solver.Objective != cold.Solver.Objective {
			t.Errorf("budget %d: readvise %v (objective %v), cold advise %v (objective %v)",
				budget, keysOf(warm), warm.Solver.Objective, keysOf(cold), cold.Solver.Objective)
		}
	}
}

// TestConcurrentPrepareBuildsOnce: the INUM cache builds a query's
// templates outside its lock, so two sweep workers that miss on the same
// query id at once both run the full optimizer and both count it. The
// online tuner names queries by their text, so an epoch whose window holds
// one statement twice pays for it twice or once depending on the schedule,
// and inum.full_optimizations does not repeat between runs of one seed.
func TestConcurrentPrepareBuildsOnce(t *testing.T) {
	sz, err := workload.SizeByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	store, err := workload.Generate(sz, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := in.onlinePass(0)
	if err != nil {
		t.Fatal(err)
	}
	env := optimizer.NewEnv(store.Schema, store.Stats, store.MaterializedConfiguration())
	const workers = 8
	for i, sql := range batches[0] {
		stmt, err := sqlparse.ParseSelect(sql)
		if err == nil {
			err = sqlparse.Resolve(stmt, store.Schema)
		}
		if err != nil {
			t.Fatal(err)
		}
		alone := inum.New(env)
		if _, err := alone.Prepare("q", stmt, nil); err != nil {
			t.Fatal(err)
		}
		want, _ := alone.Stats()

		shared := inum.New(env)
		var ready, done sync.WaitGroup
		ready.Add(1)
		for range workers {
			done.Add(1)
			go func() {
				defer done.Done()
				ready.Wait()
				if _, err := shared.Prepare("q", stmt, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		ready.Done()
		done.Wait()
		if got, _ := shared.Stats(); got != want {
			t.Errorf("query %d: %d workers preparing it at once ran %d full optimizations, one worker %d", i, workers, got, want)
		}
	}
}
