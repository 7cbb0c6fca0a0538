package stm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// TestSingleThreadMatchesModel drives a set of vars with random
// transactional op sequences and compares against a plain-slice model:
// committed transactions apply, aborted ones don't, reads see
// everything written so far.
func TestSingleThreadMatchesModel(t *testing.T) {
	const nVars = 8
	vars := make([]*Var[int], nVars)
	model := make([]int, nVars)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	th := newTestThread()
	rng := rand.New(rand.NewSource(99))
	boom := errors.New("boom")
	for round := 0; round < 2000; round++ {
		abort := rng.Intn(4) == 0
		shadow := make([]int, nVars)
		copy(shadow, model)
		err := th.Atomic(func(tx *Tx) error {
			for op := 0; op < 3; op++ {
				i := rng.Intn(nVars)
				switch rng.Intn(2) {
				case 0:
					if got := vars[i].Get(tx); got != shadow[i] {
						t.Fatalf("round %d: var %d = %d, want %d", round, i, got, shadow[i])
					}
				default:
					v := rng.Int() % 1000
					vars[i].Set(tx, v)
					shadow[i] = v
				}
			}
			if abort {
				return boom
			}
			return nil
		})
		if abort {
			if err != boom {
				t.Fatal(err)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			copy(model, shadow)
		}
		// Committed state must equal the model after every round.
		for i := range vars {
			if got := vars[i].GetCommitted(); got != model[i] {
				t.Fatalf("round %d: committed var %d = %d, want %d", round, i, got, model[i])
			}
		}
	}
}

// TestNestingDepthProperty quick-checks that a chain of nested levels
// with an abort at a random depth rolls back exactly the levels at and
// below the abort.
func TestNestingDepthProperty(t *testing.T) {
	prop := func(depthSeed, abortSeed uint8) bool {
		depth := int(depthSeed%5) + 1
		abortAt := int(abortSeed) % (depth + 1) // depth means "no abort"
		vars := make([]*Var[int], depth)
		for i := range vars {
			vars[i] = NewVar(0)
		}
		th := newTestThread()
		childErr := errors.New("child")
		var build func(tx *Tx, level int) error
		build = func(tx *Tx, level int) error {
			if level == depth {
				return nil
			}
			err := tx.Nested(func() error {
				vars[level].Set(tx, level+1)
				if level == abortAt {
					return childErr
				}
				return build(tx, level+1)
			})
			if level == abortAt {
				return nil // swallow the child abort, keep outer levels
			}
			return err
		}
		if err := th.Atomic(func(tx *Tx) error { return build(tx, 0) }); err != nil {
			return false
		}
		for i := range vars {
			want := i + 1
			if i >= abortAt {
				want = 0 // rolled back with the aborted child
			}
			if vars[i].GetCommitted() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenInsideNested(t *testing.T) {
	v := NewVar(0)
	openEffect := 0
	th := newTestThread()
	childErr := errors.New("child aborts")
	var compensated bool
	err := th.Atomic(func(tx *Tx) error {
		_ = tx.Nested(func() error {
			v.Set(tx, 1)
			if err := tx.Open(func(o *Tx) error {
				openEffect = 42
				o.OnAbortGuarded(testGuard, func() { compensated = true })
				return nil
			}); err != nil {
				return err
			}
			return childErr
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The nested child aborted: its memory write is gone, but the
	// open-nested effect stands — and the abort handler registered by
	// the open section (on the aborting level) must have run as
	// compensation.
	if v.GetCommitted() != 0 {
		t.Fatal("aborted child's memory write survived")
	}
	if openEffect != 42 {
		t.Fatal("open-nested effect was rolled back with the closed-nested child")
	}
	if !compensated {
		t.Fatal("abort handler from the open section did not run when its level aborted")
	}
}

func TestNestedPartialRollbackRetries(t *testing.T) {
	// A nested child that hits a memory conflict retries alone: the
	// parent body must execute once while the child body executes
	// twice.
	a := NewVar(0)
	shared := NewVar(0)
	th1 := newTestThread()
	th2 := NewThread(&RealClock{}, 2)
	parentRuns, childRuns := 0, 0
	err := th1.Atomic(func(tx *Tx) error {
		parentRuns++
		a.Set(tx, 7)
		return tx.Nested(func() error {
			childRuns++
			got := shared.Get(tx)
			if childRuns == 1 {
				// Another transaction commits a change to shared,
				// invalidating the child's read.
				if err := th2.Atomic(func(tx2 *Tx) error {
					shared.Set(tx2, got+100)
					return nil
				}); err != nil {
					return err
				}
				// Touch it again so the child sees the stale snapshot
				// on this attempt... the conflict surfaces at the
				// parent's commit-time validation instead if extension
				// succeeded. Force the issue with a write.
			}
			shared.Set(tx, got+1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.GetCommitted() != 101 {
		t.Fatalf("shared = %d, want 101 (child must have re-read after retry)", shared.GetCommitted())
	}
	if a.GetCommitted() != 7 {
		t.Fatal("parent write lost")
	}
}

func TestViolateDuringBackoffEventuallyCommits(t *testing.T) {
	// Repeatedly violated transactions must still make progress once
	// the violator stops.
	v := NewVar(0)
	th := newTestThread()
	var h *Handle
	attempts := 0
	err := th.Atomic(func(tx *Tx) error {
		attempts++
		h = tx.Handle()
		v.Set(tx, attempts)
		if attempts <= 3 {
			// Simulate an external violator hitting us mid-flight.
			if !h.Violate(fmt.Sprintf("hit %d", attempts)) {
				t.Fatal("violate failed on active tx")
			}
			tx.Poll()
			t.Fatal("unreachable: Poll must unwind after violation")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if th.Stats.Violations != 3 {
		t.Fatalf("violations = %d, want 3", th.Stats.Violations)
	}
	if v.GetCommitted() != 4 {
		t.Fatalf("v = %d, want 4", v.GetCommitted())
	}
}

func TestViolateObservedAtCommit(t *testing.T) {
	// A violation that lands after the last Poll must still abort the
	// transaction at its commit point.
	v := NewVar(0)
	th := newTestThread()
	attempts := 0
	err := th.Atomic(func(tx *Tx) error {
		attempts++
		v.Set(tx, attempts)
		if attempts == 1 {
			if !tx.Handle().Violate("late hit") {
				t.Fatal("violate failed")
			}
			// No Poll: the commit's Active→Prepared CAS must notice.
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if v.GetCommitted() != 2 {
		t.Fatalf("v = %d (the violated attempt's write must not commit)", v.GetCommitted())
	}
}

func TestSetCommittedVisibleToTransactions(t *testing.T) {
	v := NewVar(1)
	v.SetCommitted(5)
	th := newTestThread()
	var got int
	if err := th.Atomic(func(tx *Tx) error {
		got = v.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("got %d, want 5", got)
	}
}

func TestConcurrentMixedNestingStress(t *testing.T) {
	const workers = 6
	const rounds = 150
	vars := make([]*Var[int], 16)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	total := NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := NewThread(&RealClock{}, int64(w))
			rng := rand.New(rand.NewSource(int64(w) * 31))
			for r := 0; r < rounds; r++ {
				err := th.Atomic(func(tx *Tx) error {
					i, j := rng.Intn(len(vars)), rng.Intn(len(vars))
					_ = tx.Nested(func() error {
						vars[i].Set(tx, vars[i].Get(tx)+1)
						if rng.Intn(3) == 0 {
							return errors.New("drop this nested increment")
						}
						vars[j].Set(tx, vars[j].Get(tx)-1)
						return nil
					})
					total.Set(tx, total.Get(tx)+1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := total.GetCommitted(); got != workers*rounds {
		t.Fatalf("total = %d, want %d", got, workers*rounds)
	}
	// Every committed nested child did +1/-1; aborted children did
	// nothing; so the grand sum across vars must be zero.
	sum := 0
	for _, v := range vars {
		sum += v.GetCommitted()
	}
	if sum != 0 {
		t.Fatalf("var sum = %d, want 0 (partial rollback leaked a half-done child)", sum)
	}
}

func TestStatsCountCommitsAndAborts(t *testing.T) {
	th := newTestThread()
	v := NewVar(0)
	for i := 0; i < 10; i++ {
		if err := th.Atomic(func(tx *Tx) error {
			v.Set(tx, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if th.Stats.Commits != 10 {
		t.Fatalf("commits = %d, want 10", th.Stats.Commits)
	}
	boom := errors.New("x")
	_ = th.Atomic(func(tx *Tx) error { return boom })
	if th.Stats.UserAborts != 1 {
		t.Fatalf("user aborts = %d", th.Stats.UserAborts)
	}
}

func TestDeferTickFlushedAfterCommit(t *testing.T) {
	clock := &RealClock{}
	th := NewThread(clock, 1)
	if err := th.Atomic(func(tx *Tx) error {
		tx.OnCommitGuarded(testGuard, func() { th.DeferTick(1000) })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if clock.Now() < 1000 {
		t.Fatalf("deferred cycles not flushed: now = %d", clock.Now())
	}
}

func TestHandleStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusActive:    "active",
		StatusPrepared:  "prepared",
		StatusCommitted: "committed",
		StatusViolated:  "violated",
		StatusAborted:   "aborted",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Status(99).String() == "" {
		t.Error("unknown status must render")
	}
}

// TestReadOnlySnapshotIsolation: a pure reader observing two vars that
// are always updated together must never see them out of sync, even
// without committing any writes.
func TestReadOnlySnapshotIsolation(t *testing.T) {
	a, b := NewVar(0), NewVar(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := NewThread(&RealClock{}, 1)
		for i := 1; i <= 500; i++ {
			if err := th.Atomic(func(tx *Tx) error {
				a.Set(tx, i)
				b.Set(tx, -i)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := NewThread(&RealClock{}, 2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var x, y int
			if err := th.Atomic(func(tx *Tx) error {
				x = a.Get(tx)
				y = b.Get(tx)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			if x+y != 0 {
				t.Errorf("torn snapshot: a=%d b=%d", x, y)
				return
			}
		}
	}()
	// Wait for the writer (first Add) by re-waiting the whole group
	// after signalling the reader.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Give the writer time to finish its 500 rounds, then stop reader.
	for {
		if a.GetCommitted() == 500 {
			break
		}
	}
	close(stop)
	<-done
}
