package stm

// Edge cases in the interaction between handlers and the two nesting
// mechanisms: partial rollback of a closed-nested level must run only
// that level's abort handlers (newest-first) and leave the parent
// viable, and a program-directed abort landing in the middle of an
// open-nested commit must let the install complete and be compensated
// by the handlers the child attached (paper §4).

import (
	"fmt"
	"reflect"
	"testing"
)

// TestNestedPartialRollbackHandlerOrder forces a stale read inside a
// closed-nested level whose enclosing snapshot can be extended: the
// child level must roll back alone, running exactly its own abort
// handlers in reverse registration order, and the retried child plus
// the parent must then commit.
func TestNestedPartialRollbackHandlerOrder(t *testing.T) {
	th := NewThread(&RealClock{}, 1)
	v1 := NewVar(0)
	v2 := NewVar(0)

	var events []string
	nestedAttempts := 0
	err := th.Atomic(func(tx *Tx) error {
		tx.OnAbortGuarded(testGuard, func() { events = append(events, "parent-abort") })
		tx.OnCommitGuarded(testGuard, func() { events = append(events, "parent-commit") })
		return tx.Nested(func() error {
			attempt := nestedAttempts
			nestedAttempts++
			tx.OnAbortGuarded(testGuard, func() { events = append(events, fmt.Sprintf("child-abort-1#%d", attempt)) })
			tx.OnAbortGuarded(testGuard, func() { events = append(events, fmt.Sprintf("child-abort-2#%d", attempt)) })
			got := v1.Get(tx)
			if attempt == 0 {
				if got != 0 {
					t.Errorf("first attempt read v1 = %d, want 0", got)
				}
				// A concurrent committer overwrites both vars after the
				// child has read v1: the child's v1 read pins the snapshot,
				// so the v2 read below cannot extend and must retry the
				// child. The parent level has no reads, so its extension
				// succeeds and the rollback stays partial.
				v1.SetCommitted(10)
				v2.SetCommitted(20)
			}
			_ = v2.Get(tx)
			v1.Set(tx, v1.Get(tx)+1)
			return nil
		})
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if nestedAttempts != 2 {
		t.Errorf("nested attempts = %d, want 2", nestedAttempts)
	}
	// Attempt 0's handlers run newest-first at the partial rollback;
	// attempt 1's handlers merge into the parent and are discarded when
	// it commits; the parent's own abort handler never runs.
	want := []string{"child-abort-2#0", "child-abort-1#0", "parent-commit"}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events = %v, want %v", events, want)
	}
	if v1.GetCommitted() != 11 {
		t.Errorf("v1 = %d, want 11", v1.GetCommitted())
	}
	if v2.GetCommitted() != 20 {
		t.Errorf("v2 = %d, want 20", v2.GetCommitted())
	}
	if th.Stats.NestedRetries != 1 {
		t.Errorf("NestedRetries = %d, want 1", th.Stats.NestedRetries)
	}
	if th.Stats.Commits != 1 || th.Stats.Aborts != 0 || th.Stats.Violations != 0 {
		t.Errorf("stats = %+v, want exactly one commit and no full aborts", th.Stats)
	}
}

// TestViolateDuringOpenCommit violates the top-level transaction while
// an open-nested section is publishing. The section must still complete
// (open effects are published unconditionally), the parent must observe
// the violation at its next transactional operation, and the rollback
// must run the compensation the section registered.
func TestViolateDuringOpenCommit(t *testing.T) {
	th := NewThread(&RealClock{}, 2)
	v := NewVar(0)
	published := 0

	attempts := 0
	compensations := 0
	openCommitHandlerRan := false
	err := th.Atomic(func(tx *Tx) error {
		attempt := attempts
		attempts++
		if attempt == 0 {
			if err := tx.Open(func(o *Tx) error {
				o.OnAbortGuarded(testGuard, func() { compensations++ })
				o.OnCommitGuarded(testGuard, func() { openCommitHandlerRan = true })
				// The violator wins the race against this attempt before
				// the section has published.
				if !tx.Handle().Violate(NewReason("test-violation")) {
					t.Error("Violate refused while the owner was still active")
				}
				published = 99
				return nil
			}); err != nil {
				t.Errorf("Open: %v", err)
			}
			_ = v.Get(tx) // observes the violation and unwinds
			t.Error("read on a violated transaction did not unwind")
		}
		v.Set(tx, 1)
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if compensations != 1 {
		t.Errorf("compensations = %d, want 1", compensations)
	}
	if openCommitHandlerRan {
		t.Error("the section's commit handler ran although the parent aborted")
	}
	if v.GetCommitted() != 1 {
		t.Errorf("v = %d, want 1", v.GetCommitted())
	}
	if published != 99 {
		t.Errorf("published = %d, want 99 (open effects survive the parent's rollback)", published)
	}
	if th.Stats.Violations != 1 || th.Stats.ViolationsByReason["test-violation"] != 1 {
		t.Errorf("violations = %d (%v), want 1 attributed to test-violation",
			th.Stats.Violations, th.Stats.ViolationsByReason)
	}
	if th.Stats.OpenCommits != 1 || th.Stats.Commits != 1 {
		t.Errorf("stats = %+v, want one open commit and one top-level commit", th.Stats)
	}
}
