// Package protocolwindows exercises the commit-window-blocking rule on
// the protocol seam's hold windows: the write-set lockword span
// (lockWriteSet → unlockWriteSet/installWriteSet, held by every
// protocol's commit) and NOrec's sequence-lock span (norecSeqAcquire →
// norecSeqRelease). One file per protocol, each modelling that
// protocol's commit shape with a blocking operation inside the span
// (flagged) and the same operation after release (clean).
package protocolwindows

import (
	"time"
)

type tx struct{}
type varCore struct{}

// lockWriteSet, unlockWriteSet, and installWriteSet model the stm
// package's write-set lockword machinery; the rule finds them by their
// directives, so the fixture stands in for internal/stm/protocol_tl2.go.
//
//stmlint:window open
func lockWriteSet(t *tx, buf []*varCore) bool { return true }

//stmlint:window close
func unlockWriteSet(buf []*varCore) {}

//stmlint:window close
func installWriteSet(buf []*varCore, wv uint64) {}

// tl2Commit holds every written var's lockword from lockWriteSet to
// installWriteSet; a sleep in between convoys every reader of those
// vars.
func tl2Commit(t *tx, buf []*varCore) bool {
	if !lockWriteSet(t, buf) {
		return false
	}
	time.Sleep(time.Millisecond) // want commit-window-blocking
	if !tl2Validate() {
		unlockWriteSet(buf)
		return false
	}
	installWriteSet(buf, 1)
	return true
}

// tl2CommitReach reaches the blocking operation through a call: the
// diagnostic lands on the in-window call site.
func tl2CommitReach(t *tx, buf []*varCore, ch chan int) {
	if !lockWriteSet(t, buf) {
		return
	}
	notifyWaiters(ch) // want commit-window-blocking
	installWriteSet(buf, 1)
}

// tl2CommitClean: the same operations after the installing release are
// outside the window.
func tl2CommitClean(t *tx, buf []*varCore, ch chan int) {
	if !lockWriteSet(t, buf) {
		return
	}
	installWriteSet(buf, 1)
	time.Sleep(time.Millisecond)
	notifyWaiters(ch)
}

func tl2Validate() bool { return true }

func notifyWaiters(ch chan int) {
	ch <- 1 // only flagged when reached with a window held
}
