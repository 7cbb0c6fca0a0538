package stm

import (
	"errors"
	"testing"
)

// Each Thread unwinds with its one signal, and a handler that runs during
// a rollback may raise it again. These tests pin what Atomic returns or
// re-panics when that happens: exactly what it did while every raise
// allocated a signal of its own — the signal that ended the attempt
// decides, whatever a handler raised since.

// outcome runs fn as a transaction on th and reports what Atomic returned
// or panicked with.
func outcome(th *Thread, fn func(tx *Tx) error) (err error, panicked any) {
	defer func() { panicked = recover() }()
	return th.Atomic(fn), nil
}

func TestHandlerRaisingDuringRollback(t *testing.T) {
	errX, errY, errZ := errors.New("x"), errors.New("y"), errors.New("z")
	boom := errors.New("boom")
	reason := NewReason("signal test: conflict")
	// raiseAndRecover is a handler that raises the thread's signal and
	// recovers it itself: nothing escapes it, but the signal is rewritten.
	raiseAndRecover := func(tx *Tx) func() {
		return func() {
			defer func() { _ = recover() }()
			tx.Abort(errY)
		}
	}
	type want struct {
		err        error
		panicked   error // a foreign panic value, compared by identity
		sigErr     error // a *signal panic value's err
		violations uint64
	}
	for _, c := range []struct {
		name string
		// handlers returns the abort handlers to register, in order (they
		// run newest-first); violate selects a violation instead of
		// tx.Abort(errX) as what ends the first attempt.
		handlers func(tx *Tx) []func()
		violate  bool
		want     want
	}{
		{"tx.Abort, handler panics", func(tx *Tx) []func() {
			return []func(){func() { panic(boom) }}
		}, false, want{panicked: boom}},
		{"tx.Abort, handler raises and recovers", func(tx *Tx) []func() {
			return []func(){raiseAndRecover(tx)}
		}, false, want{err: errX}},
		{"tx.Abort, handler raises", func(tx *Tx) []func() {
			return []func(){func() { tx.Abort(errY) }}
		}, false, want{sigErr: errY}},
		{"tx.Abort, two handlers raise", func(tx *Tx) []func() {
			return []func(){func() { tx.Abort(errY) }, func() { tx.Abort(errZ) }}
		}, false, want{sigErr: errZ}},
		{"violated, handler panics", func(tx *Tx) []func() {
			return []func(){func() { panic(boom) }}
		}, true, want{panicked: boom, violations: 1}},
		{"violated, handler raises and recovers", func(tx *Tx) []func() {
			return []func(){raiseAndRecover(tx)}
		}, true, want{violations: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			th := newTestThread()
			v := NewVar(0)
			attempts := 0
			err, panicked := outcome(th, func(tx *Tx) error {
				attempts++
				v.Set(tx, attempts)
				if attempts > 1 {
					return nil
				}
				for _, h := range c.handlers(tx) {
					tx.OnAbortGuarded(NewGuard(), h)
				}
				if c.violate {
					tx.Handle().Violate(reason)
					tx.Poll()
				}
				tx.Abort(errX)
				return nil
			})
			if err != c.want.err {
				t.Errorf("Atomic returned %v, want %v", err, c.want.err)
			}
			switch s, _ := panicked.(*signal); {
			case c.want.sigErr != nil:
				if s == nil || s.kind != sigUserAbort || s.err != c.want.sigErr {
					t.Errorf("Atomic panicked with %v, want a tx.Abort(%v) signal", panicked, c.want.sigErr)
				}
			case panicked != nil && panicked != c.want.panicked || panicked == nil && c.want.panicked != nil:
				t.Errorf("Atomic panicked with %v, want %v", panicked, c.want.panicked)
			}
			if got := th.Stats.Violations; got != c.want.violations {
				t.Errorf("%d violations, want %d", got, c.want.violations)
			}
			if c.want.violations > 0 && th.Stats.ViolationsByReason[reason.state.reason] != c.want.violations {
				t.Errorf("violations by reason %v, want %d under %q", th.Stats.ViolationsByReason, c.want.violations, reason.state.reason)
			}
			if !atRest(th) {
				t.Error("thread not at rest after the transaction")
			}
		})
	}
}

// TestNestedRetryThenViolatedParent: a closed-nested child that retries —
// with an abort handler that raises during the child's partial rollback,
// or violated itself — and a parent violated afterwards still end in one
// violation of the parent and a commit on its second attempt.
func TestNestedRetryThenViolatedParent(t *testing.T) {
	errY := errors.New("y")
	reason := NewReason("signal test: parent conflict")
	for _, c := range []struct {
		name string
		// child is the child's body on its first run in an attempt.
		child func(tx *Tx)
		// nestedRetries and violations are the counts the transaction
		// must end with.
		nestedRetries, violations uint64
	}{
		{"child retries", func(tx *Tx) {
			tx.bail(sigRetry, "forced")
		}, 2, 1},
		{"child's handler raises during its retry", func(tx *Tx) {
			tx.OnAbortGuarded(NewGuard(), func() {
				defer func() { _ = recover() }()
				tx.Abort(errY)
			})
			tx.bail(sigRetry, "forced")
		}, 2, 1},
		{"child violated", func(tx *Tx) {
			if tx.Attempt() == 0 {
				tx.Handle().Violate(reason)
				tx.Poll()
			}
		}, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			th := newTestThread()
			v := NewVar(0)
			attempts := 0
			err, panicked := outcome(th, func(tx *Tx) error {
				attempts++
				childRuns := 0
				if err := tx.Nested(func() error {
					childRuns++
					v.Set(tx, 10*attempts+childRuns)
					if childRuns == 1 {
						c.child(tx)
					}
					return nil
				}); err != nil {
					return err
				}
				if attempts == 1 {
					tx.Handle().Violate(reason)
					tx.Poll()
				}
				return nil
			})
			if err != nil || panicked != nil {
				t.Fatalf("Atomic = %v, panicked %v; want nil", err, panicked)
			}
			if attempts != 2 {
				t.Errorf("%d attempts, want 2", attempts)
			}
			if want := 10*attempts + 1 + int(c.nestedRetries/2); v.GetCommitted() != want {
				t.Errorf("committed %d, want %d", v.GetCommitted(), want)
			}
			s := th.Stats
			if s.NestedRetries != c.nestedRetries || s.Violations != c.violations || s.ViolationsByReason[reason.state.reason] != c.violations {
				t.Errorf("stats: %d nested retries, %d violations %v; want %d and %d under %q",
					s.NestedRetries, s.Violations, s.ViolationsByReason, c.nestedRetries, c.violations, reason.state.reason)
			}
			if !atRest(th) {
				t.Error("thread not at rest after the transaction")
			}
		})
	}
}
