// Package traceincommit exercises the trace-in-commit rule: inside a
// commit-guard hold window — opened by stm.Guard.Lock, by a call to a
// function named acquireGuards, or by a striped collection's
// lockSpan helper; closed by Guard.Unlock / releaseGuards /
// unlockSpan — no code may call into the obs package or construct
// obs values. Emission belongs after the guards are released.
package traceincommit

import (
	"sync"

	"tcc/internal/obs"
	"tcc/internal/stm"
)

var guard = stm.NewGuard()

// otherMu is a plain mutex; holding it does not restrict emission.
var otherMu sync.Mutex

// emitInWindow emits directly inside the window: both the event
// construction and the sink call are flagged.
func emitInWindow(tr obs.Tracer) {
	guard.Lock()
	e := obs.Event{Kind: obs.KindTxCommit} // want trace-in-commit
	tr.Trace(e)                            // want trace-in-commit
	guard.Unlock()
	tr.Trace(e) // emission after Unlock is the sanctioned pattern
}

// conditionalWindow mirrors the collections' real shape: the guard is
// taken under a condition, so the window opens at the if statement.
func conditionalWindow(tr obs.Tracer, guarded bool) {
	if guarded {
		guard.Lock()
	}
	tr.Trace(obs.Event{}) // want trace-in-commit trace-in-commit
	if guarded {
		guard.Unlock()
	}
	tr.Trace(obs.Event{})
}

// footprint models the commit protocol's guard-set acquisition: calls
// to functions annotated //stmlint:window open|close open and close the
// window just like direct Guard.Lock/Unlock.
//
//stmlint:window open
func acquireGuards(gs []*stm.Guard) {
	for _, g := range gs {
		g.Lock()
	}
}

//stmlint:window close
func releaseGuards(gs []*stm.Guard) {
	for _, g := range gs {
		g.Unlock()
	}
}

func footprintWindow(tr obs.Tracer, gs []*stm.Guard) {
	acquireGuards(gs)
	tr.Trace(obs.Event{}) // want trace-in-commit trace-in-commit
	releaseGuards(gs)
	tr.Trace(obs.Event{}) // emission after release: the shape of stm's edgeGuardWaits
}

// stripedMap models a striped collection's all-stripes acquisition
// helper: lockSpan/unlockSpan are methods (the real helpers hang off
// the collection instance) that sweep a span of stripe guards, so a call
// to them opens/closes a hold window exactly like Guard.Lock/Unlock.
type stripedMap struct {
	guards []*stm.Guard
}

//stmlint:window open
func (m *stripedMap) lockSpan(lo, hi int) {
	for _, g := range m.guards[lo:hi] {
		g.Lock()
	}
}

//stmlint:window close
func (m *stripedMap) unlockSpan(lo, hi int) {
	for _, g := range m.guards[lo:hi] {
		g.Unlock()
	}
}

func stripedSnapshotWindow(tr obs.Tracer, m *stripedMap) {
	m.lockSpan(0, len(m.guards))
	tr.Trace(obs.Event{}) // want trace-in-commit trace-in-commit
	m.unlockSpan(0, len(m.guards))
	tr.Trace(obs.Event{}) // emission after the stripe sweep is released
}

// lockAndCall reaches emission through a same-package call chain; the
// diagnostic lands on the in-window call site, carrying the chain
// (helper → deeper → call to obs.SetTracer) in its message, so a
// suppression comment stays next to the window that owns the problem
// rather than on a callee shared with innocent callers.
func lockAndCall() {
	guard.Lock()
	helper() // want trace-in-commit
	guard.Unlock()
}

func helper() {
	deeper()
}

func deeper() {
	obs.SetTracer(nil) // only flagged when reached with a guard held
}

// deferredUnlock holds the guard until the function returns, so the
// trailing emission is still inside the window.
func deferredUnlock(tr obs.Tracer) {
	guard.Lock()
	defer guard.Unlock()
	tr.Trace(obs.Event{}) // want trace-in-commit trace-in-commit
}

// closureDoesNotOpen: a guard window inside a function literal does
// not leak into the enclosing function.
func closureDoesNotOpen(tr obs.Tracer) {
	f := func() {
		guard.Lock()
		guard.Unlock()
	}
	f()
	tr.Trace(obs.Event{})
}

// otherMutexIsFine: emission under an unrelated lock is allowed.
func otherMutexIsFine(tr obs.Tracer) {
	otherMu.Lock()
	tr.Trace(obs.Event{})
	otherMu.Unlock()
}

// fieldStoresAreFine mirrors stm's noteConflict and lockContended:
// recording attribution with plain stores inside the window is the
// sanctioned mechanism.
type conflictNote struct {
	where string
	other uint64
}

func fieldStoresAreFine(n *conflictNote) {
	guard.Lock()
	n.where = "var#1"
	n.other = 42
	guard.Unlock()
}
