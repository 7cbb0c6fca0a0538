package stm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTestThread() *Thread { return NewThread(&RealClock{}, 1) }

// testGuard is the guard the package's tests register handlers under
// when which guard it is does not matter to the test.
var testGuard = NewGuard()

func TestReadInitialValue(t *testing.T) {
	v := NewVar(42)
	th := newTestThread()
	var got int
	if err := th.Atomic(func(tx *Tx) error {
		got = v.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestWriteThenReadOwnWrite(t *testing.T) {
	v := NewVar("a")
	th := newTestThread()
	err := th.Atomic(func(tx *Tx) error {
		v.Set(tx, "b")
		if got := v.Get(tx); got != "b" {
			t.Fatalf("read own write = %q, want b", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.GetCommitted(); got != "b" {
		t.Fatalf("committed = %q, want b", got)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	v := NewVar(1)
	th := newTestThread()
	wantErr := errors.New("rollback")
	err := th.Atomic(func(tx *Tx) error {
		v.Set(tx, 99)
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if got := v.GetCommitted(); got != 1 {
		t.Fatalf("committed = %d, want 1 (write must be discarded)", got)
	}
}

func TestSelfAbort(t *testing.T) {
	v := NewVar(1)
	th := newTestThread()
	wantErr := errors.New("inconsistent")
	err := th.Atomic(func(tx *Tx) error {
		v.Set(tx, 2)
		tx.Abort(wantErr)
		t.Fatal("unreachable")
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if got := v.GetCommitted(); got != 1 {
		t.Fatalf("committed = %d, want 1", got)
	}
	if th.Stats.UserAborts != 1 {
		t.Fatalf("UserAborts = %d, want 1", th.Stats.UserAborts)
	}
}

// TestCounterRace hammers one variable from many goroutines; lost
// updates would reveal broken isolation.
func TestCounterRace(t *testing.T) {
	const workers, perWorker = 8, 200
	v := NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := NewThread(&RealClock{}, seed)
			for i := 0; i < perWorker; i++ {
				if err := th.Atomic(func(tx *Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := v.GetCommitted(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestBankTransferInvariant moves money between accounts concurrently;
// the total must be conserved and no transaction may observe a torn
// state (checked by an invariant-reading transaction).
func TestBankTransferInvariant(t *testing.T) {
	const accounts = 8
	const total = 1000 * accounts
	vars := make([]*Var[int], accounts)
	for i := range vars {
		vars[i] = NewVar(1000)
	}
	var transfers, checker sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		transfers.Add(1)
		go func(seed int64) {
			defer transfers.Done()
			th := NewThread(&RealClock{}, seed)
			for i := 0; i < 300; i++ {
				from, to := int(seed+int64(i))%accounts, int(seed+int64(i)*7+1)%accounts
				if from == to {
					continue
				}
				err := th.Atomic(func(tx *Tx) error {
					a := vars[from].Get(tx)
					b := vars[to].Get(tx)
					vars[from].Set(tx, a-10)
					vars[to].Set(tx, b+10)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	checker.Add(1)
	go func() {
		defer checker.Done()
		th := NewThread(&RealClock{}, 99)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sum := 0
			if err := th.Atomic(func(tx *Tx) error {
				sum = 0
				for _, v := range vars {
					sum += v.Get(tx)
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			if sum != total {
				t.Errorf("observed torn total %d, want %d", sum, total)
				return
			}
		}
	}()
	transfers.Wait()
	close(stop)
	checker.Wait()
	sum := 0
	for _, v := range vars {
		sum += v.GetCommitted()
	}
	if sum != total {
		t.Fatalf("final total %d, want %d", sum, total)
	}
}

func TestNestedCommitMergesIntoParent(t *testing.T) {
	a, b := NewVar(0), NewVar(0)
	th := newTestThread()
	err := th.Atomic(func(tx *Tx) error {
		a.Set(tx, 1)
		if err := tx.Nested(func() error {
			b.Set(tx, 2)
			if a.Get(tx) != 1 {
				t.Fatal("nested child cannot see parent write")
			}
			return nil
		}); err != nil {
			return err
		}
		if b.Get(tx) != 2 {
			t.Fatal("parent cannot see merged child write")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.GetCommitted() != 1 || b.GetCommitted() != 2 {
		t.Fatalf("committed (%d,%d), want (1,2)", a.GetCommitted(), b.GetCommitted())
	}
}

func TestNestedAbortIsPartial(t *testing.T) {
	a, b := NewVar(0), NewVar(0)
	th := newTestThread()
	childErr := errors.New("child fails")
	err := th.Atomic(func(tx *Tx) error {
		a.Set(tx, 1)
		if err := tx.Nested(func() error {
			b.Set(tx, 2)
			return childErr
		}); err != childErr {
			t.Fatalf("nested err = %v, want %v", err, childErr)
		}
		// Child write must be gone; parent write must survive.
		if b.Get(tx) != 0 {
			t.Fatal("aborted child write visible in parent")
		}
		if a.Get(tx) != 1 {
			t.Fatal("parent write lost after child abort")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.GetCommitted() != 1 || b.GetCommitted() != 0 {
		t.Fatalf("committed (%d,%d), want (1,0)", a.GetCommitted(), b.GetCommitted())
	}
}

func TestOpenNestingPublishesImmediately(t *testing.T) {
	// What a section publishes under its own lock is visible to another
	// thread while the parent still runs, and outlives the parent's
	// rollback.
	published := 0
	th, other := newTestThread(), NewThread(&RealClock{}, 2)
	wantErr := errors.New("parent aborts")
	err := th.Atomic(func(tx *Tx) error {
		if err := tx.Open(func(o *Tx) error {
			testGuard.Lock()
			defer testGuard.Unlock()
			published = 7
			return nil
		}); err != nil {
			return err
		}
		MustAtomicT(t, other, func(tx2 *Tx) error {
			tx2.OnCommitGuarded(testGuard, func() {
				if published != 7 {
					t.Errorf("open effect not published: %d", published)
				}
			})
			return nil
		})
		return wantErr // parent aborts; the open effect must survive
	})
	if err != wantErr {
		t.Fatal(err)
	}
	if published != 7 {
		t.Fatalf("open effect rolled back with parent: %d", published)
	}
}

func TestOpenNestingDoesNotPolluteParentReadSet(t *testing.T) {
	// Parent reads shared state only inside an open section. Another
	// transaction then commits a change to it. The parent must still
	// commit at its first attempt: the section left no read dependency.
	shared := 0
	w := NewVar(0)
	th1, th2 := NewThread(&RealClock{}, 1), NewThread(&RealClock{}, 2)
	err := th1.Atomic(func(tx *Tx) error {
		if err := tx.Open(func(o *Tx) error {
			testGuard.Lock()
			defer testGuard.Unlock()
			_ = shared
			return nil
		}); err != nil {
			return err
		}
		if err := th2.Atomic(func(tx2 *Tx) error {
			tx2.OnCommitGuarded(testGuard, func() { shared = 99 })
			return nil
		}); err != nil {
			return err
		}
		w.Set(tx, 1)
		if tx.Attempt() > 0 {
			t.Fatal("parent restarted despite open-nested read")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommitHandlerRunsOnCommitOnly(t *testing.T) {
	th := newTestThread()
	runs := 0
	if err := th.Atomic(func(tx *Tx) error {
		tx.OnCommitGuarded(testGuard, func() { runs++ })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("commit handler ran %d times, want 1", runs)
	}
	bad := errors.New("abort")
	_ = th.Atomic(func(tx *Tx) error {
		tx.OnCommitGuarded(testGuard, func() { runs++ })
		return bad
	})
	if runs != 1 {
		t.Fatalf("commit handler ran on abort (runs=%d)", runs)
	}
}

func TestAbortHandlerRunsOnAbortOnly(t *testing.T) {
	th := newTestThread()
	runs := 0
	bad := errors.New("abort")
	_ = th.Atomic(func(tx *Tx) error {
		tx.OnAbortGuarded(testGuard, func() { runs++ })
		return bad
	})
	if runs != 1 {
		t.Fatalf("abort handler ran %d times, want 1", runs)
	}
	if err := th.Atomic(func(tx *Tx) error {
		tx.OnAbortGuarded(testGuard, func() { runs++ })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("abort handler ran on commit (runs=%d)", runs)
	}
}

func TestHandlersFromAbortedNestedLevelAreDiscarded(t *testing.T) {
	// A commit handler registered inside a nested child that aborts
	// must never run; the child's abort handler must run exactly once,
	// at child abort time (paper §4).
	th := newTestThread()
	var commits, aborts int
	childErr := errors.New("child abort")
	err := th.Atomic(func(tx *Tx) error {
		_ = tx.Nested(func() error {
			tx.OnCommitGuarded(testGuard, func() { commits++ })
			tx.OnAbortGuarded(testGuard, func() { aborts++ })
			return childErr
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits != 0 {
		t.Fatalf("commit handler from aborted child ran %d times", commits)
	}
	if aborts != 1 {
		t.Fatalf("abort handler from aborted child ran %d times, want 1", aborts)
	}
}

func TestHandlersPromoteThroughNestedCommit(t *testing.T) {
	th := newTestThread()
	var order []string
	err := th.Atomic(func(tx *Tx) error {
		tx.OnCommitGuarded(testGuard, func() { order = append(order, "outer") })
		return tx.Nested(func() error {
			tx.OnCommitGuarded(testGuard, func() { order = append(order, "inner") })
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("handler order %v, want [outer inner]", order)
	}
}

func TestAbortHandlersRunNewestFirst(t *testing.T) {
	th := newTestThread()
	var order []string
	bad := errors.New("abort")
	_ = th.Atomic(func(tx *Tx) error {
		tx.OnAbortGuarded(testGuard, func() { order = append(order, "first") })
		tx.OnAbortGuarded(testGuard, func() { order = append(order, "second") })
		return bad
	})
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Fatalf("abort handler order %v, want [second first]", order)
	}
}

func TestOpenChildHandlersAttachToParent(t *testing.T) {
	th := newTestThread()
	var commits, aborts int
	if err := th.Atomic(func(tx *Tx) error {
		return tx.Open(func(o *Tx) error {
			o.OnCommitGuarded(testGuard, func() { commits++ })
			o.OnAbortGuarded(testGuard, func() { aborts++ })
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if commits != 1 || aborts != 0 {
		t.Fatalf("(commits,aborts) = (%d,%d), want (1,0)", commits, aborts)
	}
	bad := errors.New("parent abort")
	_ = th.Atomic(func(tx *Tx) error {
		if err := tx.Open(func(o *Tx) error {
			o.OnCommitGuarded(testGuard, func() { commits++ })
			o.OnAbortGuarded(testGuard, func() { aborts++ })
			return nil
		}); err != nil {
			return err
		}
		return bad
	})
	if commits != 1 || aborts != 1 {
		t.Fatalf("(commits,aborts) = (%d,%d), want (1,1): parent abort must run the open section's compensation", commits, aborts)
	}
}

func TestOpenChildErrorHasNoEffects(t *testing.T) {
	th := newTestThread()
	var handlerRan bool
	childErr := errors.New("open section fails")
	err := th.Atomic(func(tx *Tx) error {
		if err := tx.Open(func(o *Tx) error {
			o.OnCommitGuarded(testGuard, func() { handlerRan = true })
			o.OnAbortGuarded(testGuard, func() { handlerRan = true })
			return childErr
		}); err != childErr {
			t.Fatalf("open err = %v, want %v", err, childErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if handlerRan {
		t.Fatal("handler from a failed open section ran")
	}
}

func TestViolateAbortsVictim(t *testing.T) {
	th := newTestThread()
	var victim *Handle
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		th2 := NewThread(&RealClock{}, 2)
		done <- th2.Atomic(func(tx *Tx) error {
			if tx.Attempt() == 0 {
				victim = tx.Handle()
				close(started)
				<-release
				tx.Poll() // must observe the violation here
				t.Error("victim survived Poll after violation")
			}
			return nil
		})
	}()
	<-started
	if !victim.Violate("test conflict") {
		t.Fatal("Violate of active tx returned false")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = th
}

func TestViolateLosesToPreparedCommit(t *testing.T) {
	th := newTestThread()
	var h *Handle
	if err := th.Atomic(func(tx *Tx) error {
		h = tx.Handle()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if h.Violate("too late") {
		t.Fatal("Violate succeeded against a committed transaction")
	}
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v, want committed", h.Status())
	}
}

func TestReadVersionExtension(t *testing.T) {
	// tx1 reads a, then tx2 commits a change to b, then tx1 reads b.
	// Plain TL2 would abort tx1 (b's version exceeds the snapshot);
	// extension revalidates a and lets tx1 proceed.
	a, b := NewVar(1), NewVar(2)
	th1, th2 := NewThread(&RealClock{}, 1), NewThread(&RealClock{}, 2)
	err := th1.Atomic(func(tx *Tx) error {
		_ = a.Get(tx)
		if tx.Attempt() == 0 {
			if err := th2.Atomic(func(tx2 *Tx) error {
				b.Set(tx2, 20)
				return nil
			}); err != nil {
				return err
			}
		}
		_ = b.Get(tx)
		if tx.Attempt() != 0 {
			t.Fatal("transaction restarted despite valid extension")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConflictingReadAborts(t *testing.T) {
	// tx1 reads a and writes b; tx2 commits a change to a before tx1
	// commits. Commit-time validation must fail (a changed after being
	// read), so tx1 restarts and sees the new value on the retry.
	a, b := NewVar(1), NewVar(2)
	th1, th2 := NewThread(&RealClock{}, 1), NewThread(&RealClock{}, 2)
	sawOld, sawNew := false, false
	err := th1.Atomic(func(tx *Tx) error {
		got := a.Get(tx)
		if got == 1 {
			sawOld = true
		}
		if got == 10 {
			sawNew = true
		}
		b.Set(tx, got*2)
		if tx.Attempt() == 0 {
			if err := th2.Atomic(func(tx2 *Tx) error {
				a.Set(tx2, 10)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawOld || !sawNew {
		t.Fatalf("sawOld=%v sawNew=%v, want both (abort + consistent retry)", sawOld, sawNew)
	}
	if th1.Stats.Aborts == 0 {
		t.Fatal("expected at least one abort")
	}
}

func TestWriteSkewPrevented(t *testing.T) {
	// Classic write-skew: each tx reads both vars and writes one.
	// Serializability requires the final state to reflect some serial
	// order; under snapshot isolation both could commit and break the
	// a+b >= 0 style invariant. Run many rounds and check.
	const rounds = 100
	for r := 0; r < rounds; r++ {
		a, b := NewVar(1), NewVar(1)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := NewThread(&RealClock{}, int64(w))
				_ = th.Atomic(func(tx *Tx) error {
					sum := a.Get(tx) + b.Get(tx)
					if sum < 2 {
						return nil
					}
					if w == 0 {
						a.Set(tx, a.Get(tx)-2)
					} else {
						b.Set(tx, b.Get(tx)-2)
					}
					return nil
				})
			}(w)
		}
		wg.Wait()
		if a.GetCommitted()+b.GetCommitted() < 0 {
			t.Fatalf("write skew: a=%d b=%d", a.GetCommitted(), b.GetCommitted())
		}
	}
}

func TestNestedAtomicPanics(t *testing.T) {
	th := newTestThread()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from nested Atomic")
		}
	}()
	_ = th.Atomic(func(tx *Tx) error {
		return th.Atomic(func(tx2 *Tx) error { return nil })
	})
}

func TestUserPanicPropagates(t *testing.T) {
	th := newTestThread()
	defer func() {
		if r := recover(); fmt.Sprint(r) != "user bug" {
			t.Fatalf("recovered %v, want user bug", r)
		}
	}()
	_ = th.Atomic(func(tx *Tx) error { panic("user bug") })
}

func TestStatsAccumulate(t *testing.T) {
	var s Stats
	s.Add(Stats{Commits: 1, Aborts: 2, Violations: 3})
	s.Add(Stats{Commits: 10})
	if s.Commits != 11 || s.Aborts != 2 || s.Violations != 3 {
		t.Fatalf("stats = %+v", s)
	}
}
