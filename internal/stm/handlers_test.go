package stm

import (
	"errors"
	"fmt"
	"testing"
)

func TestOnTopCommitFromNestedLevel(t *testing.T) {
	// OnTopCommitGuarded registers at the root level no matter how deep the
	// current nesting is: the handler survives the nested child's
	// commit and runs exactly once at top-level commit.
	th := newTestThread()
	runs := 0
	err := th.Atomic(func(tx *Tx) error {
		return tx.Nested(func() error {
			return tx.Nested(func() error {
				tx.OnTopCommitGuarded(testGuard, func() { runs++ })
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("top commit handler ran %d times", runs)
	}
}

func TestOnTopAbortRunsOnWholeTxRollbackOnly(t *testing.T) {
	th := newTestThread()
	aborts := 0
	childErr := errors.New("child")
	// Registered from inside a nested child that aborts: unlike a
	// level-local OnAbortGuarded, the top-level registration survives and runs
	// only if the whole transaction rolls back. This is precisely the
	// single-handler design the collections rely on (and the documented
	// caveat of the paper's §5.1 single-handler choice).
	if err := th.Atomic(func(tx *Tx) error {
		_ = tx.Nested(func() error {
			tx.OnTopAbortGuarded(testGuard, func() { aborts++ })
			return childErr
		})
		return nil // transaction commits
	}); err != nil {
		t.Fatal(err)
	}
	if aborts != 0 {
		t.Fatalf("top abort handler ran on commit (%d)", aborts)
	}
	boom := errors.New("boom")
	_ = th.Atomic(func(tx *Tx) error {
		tx.OnTopAbortGuarded(testGuard, func() { aborts++ })
		return boom
	})
	if aborts != 1 {
		t.Fatalf("top abort handler ran %d times on rollback", aborts)
	}
}

// TestCommitHandlersAreMutuallyAtomic: handlers of different
// transactions must never interleave (they run under the commit guard,
// emulating TCC's atomic commit broadcast).
func TestCommitHandlersAreMutuallyAtomic(t *testing.T) {
	const workers = 6
	const rounds = 100
	inside := 0
	bad := false
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			th := NewThread(&RealClock{}, int64(w))
			for r := 0; r < rounds; r++ {
				_ = th.Atomic(func(tx *Tx) error {
					tx.OnCommitGuarded(testGuard, func() {
						inside++
						if inside != 1 {
							bad = true
						}
						inside--
					})
					return nil
				})
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if bad {
		t.Fatal("commit handlers of different transactions interleaved")
	}
}

func TestSignalStringAndTxThread(t *testing.T) {
	s := &signal{kind: sigRetry, reason: "why"}
	if got := s.String(); got == "" || got != fmt.Sprintf("stm signal %d (why)", sigRetry) {
		t.Fatalf("signal string = %q", got)
	}
	th := newTestThread()
	if err := th.Atomic(func(tx *Tx) error {
		if tx.Thread() != th {
			t.Error("Tx.Thread mismatch")
		}
		return tx.Open(func(o *Tx) error {
			if o.Thread() != th {
				t.Error("open child Thread mismatch")
			}
			if o.Handle() != tx.Handle() {
				t.Error("open child must share the top-level handle")
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRetryOnMemoryConflict(t *testing.T) {
	// Force an open child's immediate commit to fail once: another
	// transaction commits a conflicting write between the child's read
	// and its install. The open child alone must retry.
	v := NewVar(0)
	th1 := newTestThread()
	th2 := NewThread(&RealClock{}, 2)
	openRuns := 0
	err := th1.Atomic(func(tx *Tx) error {
		return tx.Open(func(o *Tx) error {
			openRuns++
			got := v.Get(o)
			if openRuns == 1 {
				if err := th2.Atomic(func(tx2 *Tx) error {
					v.Set(tx2, got+50)
					return nil
				}); err != nil {
					return err
				}
			}
			v.Set(o, got+1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if openRuns != 2 {
		t.Fatalf("open child ran %d times, want 2", openRuns)
	}
	if v.GetCommitted() != 51 {
		t.Fatalf("v = %d, want 51", v.GetCommitted())
	}
	if th1.Stats.OpenRetries != 1 {
		t.Fatalf("open retries = %d", th1.Stats.OpenRetries)
	}
}

func TestStatsAddMergesReasonMaps(t *testing.T) {
	var a, b Stats
	a.countViolation("x")
	a.countViolation("x")
	b.countViolation("y")
	b.countViolation("")
	a.Add(b)
	if a.Violations != 4 {
		t.Fatalf("violations = %d", a.Violations)
	}
	if a.ViolationsByReason["x"] != 2 || a.ViolationsByReason["y"] != 1 || a.ViolationsByReason["(unspecified)"] != 1 {
		t.Fatalf("reason map = %v", a.ViolationsByReason)
	}
}
