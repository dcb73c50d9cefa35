package inum_test

import (
	"sync"
	"testing"

	"repro/internal/inum"
	"repro/internal/sqlparse"
)

// prepareAtOnce releases n goroutines together, each preparing stmts[g%len]
// under one query ID, and returns the entry each one got.
func prepareAtOnce(t *testing.T, c *inum.Cache, id string, stmts []*sqlparse.SelectStmt, n int) []*inum.CachedQuery {
	t.Helper()
	got := make([]*inum.CachedQuery, n)
	var ready, done sync.WaitGroup
	ready.Add(1)
	for g := range n {
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Wait()
			q, err := c.Prepare(id, stmts[g%len(stmts)], nil)
			if err != nil {
				t.Error(err)
			}
			got[g] = q
		}()
	}
	ready.Done()
	done.Wait()
	return got
}

// TestConcurrentPrepareBuildsOnce: goroutines that miss on the same query
// at once wait for one build instead of each running the full optimizer,
// so the full-optimization count does not depend on the schedule.
func TestConcurrentPrepareBuildsOnce(t *testing.T) {
	f := newFixture(t, 12)
	const workers = 8
	for round := 0; round < 5; round++ {
		for _, q := range f.w.Queries {
			alone := inum.New(f.env)
			if _, err := alone.Prepare(q.ID, q.Stmt, nil); err != nil {
				t.Fatal(err)
			}
			want, _ := alone.Stats()

			shared := inum.New(f.env)
			got := prepareAtOnce(t, shared, q.ID, []*sqlparse.SelectStmt{q.Stmt}, workers)
			if full, _ := shared.Stats(); full != want {
				t.Fatalf("round %d, %s: %d workers preparing it at once ran %d full optimizations, one worker %d",
					round, q.ID, workers, full, want)
			}
			for g := range got {
				if got[g] != got[0] {
					t.Fatalf("round %d, %s: worker %d got a different entry", round, q.ID, g)
				}
			}
		}
	}
}

// TestConcurrentPrepareReusedID: concurrent preparers of different
// statements under one ID each get an entry built for their own statement.
func TestConcurrentPrepareReusedID(t *testing.T) {
	f := newFixture(t, 4)
	stmts := []*sqlparse.SelectStmt{f.w.Queries[0].Stmt, f.w.Queries[1].Stmt}
	if stmts[0].String() == stmts[1].String() {
		t.Skip("fixture drew two identical statements")
	}
	c := inum.New(f.env)
	got := prepareAtOnce(t, c, "q0", stmts, 8)
	for g, q := range got {
		if q == nil || q.Stmt.String() != stmts[g%2].String() {
			t.Fatalf("worker %d got an entry for another statement", g)
		}
	}
}
