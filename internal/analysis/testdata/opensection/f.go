// Package opensection exercises the two directives a helper uses to say
// what it does with the function it is handed: //stmlint:window around
// (it runs it with a commit guard held) and //stmlint:txbody (it runs it
// as a transaction body). The models below are the shape of core's
// stripeSet.held, open and stripeSet.section; every finding here is the
// one the same statement earns between a lexical Lock() and Unlock(), or
// inside a literal passed to tx.Open (lexical.go has that twin) — and
// none in this file survives without the directives
// (TestWindowDirectiveNotName).
package opensection

import (
	"time"

	"tcc/internal/obs"
	"tcc/internal/stm"
)

// held runs fn with the span's guards held.
//
//stmlint:window around
func (s *striped) held(lo, hi int, fn func()) {
	s.lockSpan(lo, hi)
	defer s.unlockSpan(lo, hi)
	fn()
}

// open runs fn as an open-nested child and charges for it afterwards.
//
//stmlint:txbody
func open(tx *stm.Tx, cost uint64, fn func()) {
	_ = tx.Open(func(*stm.Tx) error {
		fn()
		return nil
	})
	tx.Thread().Clock.Tick(cost)
}

// section is both: fn is the body of a child and runs under the guards.
//
//stmlint:txbody
//stmlint:window around
func (s *striped) section(tx *stm.Tx, lo, hi int, fn func()) {
	open(tx, 40, func() { s.held(lo, hi, fn) })
}

// inSection: every one of them, in a literal handed to the helper.
func inSection(tx *stm.Tx, s *striped, tr obs.Tracer, ch chan int) {
	s.section(tx, 0, 2, func() {
		ch <- 1                        // want commit-window-blocking
		tr.Trace(obs.Event{})          // want trace-in-commit trace-in-commit
		_ = time.Now()                 // want nondeterminism
		must(tx.Thread().Atomic(noop)) // want nested-atomic guard-order trace-in-commit
		other.Lock()                   // want guard-order
		other.Unlock()
	})
}

// inHeld: a hold window and nothing else — held does not make its
// argument a transaction body, so the clock read is not a finding here.
func inHeld(s *striped, tr obs.Tracer, ch chan int) {
	s.held(0, 1, func() {
		<-ch                                   // want commit-window-blocking
		e := obs.Event{Kind: obs.KindTxCommit} // want trace-in-commit
		tr.Trace(e)                            // want trace-in-commit
		_ = time.Now()
	})
}

// inOpen: a transaction body and no window — the child holds no guard
// until it takes one, so blocking and emission are not findings here.
func inOpen(tx *stm.Tx, tr obs.Tracer, ch chan int) {
	open(tx, 8, func() {
		ch <- 1
		tr.Trace(obs.Event{})
		time.Sleep(time.Millisecond)       // want nondeterminism
		must(tx.Thread().AtomicRead(noop)) // want nested-atomic
	})
}

// spanInsideSpan: the helper sweeps its own span in ascending order, but
// cannot order it against a guard the caller already holds (lexical.go has
// the case where that hold is a lexical one).
func spanInsideSpan(tx *stm.Tx, s *striped) {
	s.held(0, 1, func() {
		s.held(1, 2, func() {}) // want guard-order
	})
}

// perStripe holds one guard at a time: each held returns with its span
// free. This is the shape of core's Size scan.
func perStripe(tx *stm.Tx, s *striped) (n int) {
	open(tx, 40, func() {
		for i := range s.guards {
			s.held(i, i+1, func() { n++ })
		}
	})
	return n
}

// aroundTheCall: the window is the literal's body — a defer registered
// before the call, the arguments and what follows it all run with the
// guards free.
func aroundTheCall(tx *stm.Tx, s *striped, tr obs.Tracer, ch chan int) {
	defer tr.Trace(obs.Event{})
	defer func() { ch <- 1 }()
	s.section(tx, 0, len(s.guards), func() {})
	tx.Thread().Clock.Tick(40)
	tr.Trace(obs.Event{})
}

// suppressed: a reviewed finding is silenced where it is.
func suppressed(s *striped) {
	s.held(0, 1, func() {
		//stmlint:ignore commit-window-blocking reviewed: a 1ns sleep in a test double
		time.Sleep(1)
	})
}
