package protocolwindows

import "sync"

// norecSeqAcquire and norecSeqRelease model NOrec's global sequence
// lock: between them norecSeq is odd and every NOrec transaction
// system-wide stalls, so this is the widest window the rule knows.
//
//stmlint:window open
func norecSeqAcquire(t *tx) bool { return true }

//stmlint:window close
func norecSeqRelease(s uint64) {}

// norecCommit parks on a mutex while holding the sequence lock — the
// whole protocol convoys behind it.
func norecCommit(t *tx, buf []*varCore, mu *sync.Mutex) bool {
	if !norecSeqAcquire(t) {
		return false
	}
	mu.Lock() // want commit-window-blocking
	mu.Unlock()
	if !lockWriteSet(t, buf) {
		norecSeqRelease(0)
		return false
	}
	installWriteSet(buf, 1)
	norecSeqRelease(2)
	return true
}

// norecCommitClean: the machinery calls themselves are the sanctioned
// window boundary, and operations after the release are free to block.
func norecCommitClean(t *tx, ch chan int) {
	if !norecSeqAcquire(t) {
		return
	}
	norecSeqRelease(2)
	<-ch
}
