package stm

// TL2 with encounter-time (eager) write locking: identical to the TL2
// default on the read and validation side, but Set acquires the
// variable's lockword immediately instead of at commit, so write-write
// conflicts surface at the write. Acquisition is non-blocking —
// a locked variable aborts the attempt rather than waiting — which
// keeps the protocol deadlock-free without ordering Set-time
// acquisitions; the contention manager's backoff breaks livelock, as
// it already does for commit-time conflicts.
//
// Writes stay buffered (lazy versioning): holding the lockword from
// Set to commit means commit's lockWriteSet finds every lock already
// owned and the install is conflict-free, but an abort still only has
// to release lockwords — no undo log. Acquired lockwords are tracked
// in Tx.eagerLocks, one list for the attempt at every nesting depth,
// and released by the abandon hooks on every rollback path, of the
// attempt or of one level; release is conditional on still owning the
// word because a child's install or a failed commit's unlock may
// already have released it.
type eagerProtocol struct{}

var protoEager Protocol = registerProtocol(eagerProtocol{})

func (eagerProtocol) Name() string { return "tl2-eager" }

func (eagerProtocol) begin(t *Thread) uint64 { return globalClock.Load() }

func (eagerProtocol) read(tx *Tx, c *varCore) any { return tl2Read(tx, c) }

// observeWrite acquires c's lockword for the attempt's handle at Set
// time; only fresh acquisitions join tx.eagerLocks, so a variable the
// attempt already owns — taken at this nesting depth or any other — is
// tracked once.
func (eagerProtocol) observeWrite(tx *Tx, c *varCore) {
	h := tx.handle
	if w := c.word.Load(); wordLocked(w) && c.owner.Load() == h {
		return
	}
	if !c.tryLock(h) {
		tx.noteConflict(c, c.owner.Load(), causeLockedVar)
		tx.bail(sigRetry, "variable locked by writer")
	}
	tx.eagerLocks = append(tx.eagerLocks, c)
}

func (eagerProtocol) extend(tx *Tx) bool { return tl2Extend(tx) }

// commit reuses the TL2 sequence: lockWriteSet's tryLocks find every
// word already owned (instant), validation and install are unchanged,
// and install's release leaves the eagerLocks entries unowned for the
// abandon hooks to skip.
func (eagerProtocol) commit(tx *Tx, l *level, doPrepare bool) bool {
	return tl2Commit(tx, l, doPrepare)
}

// abandon releases every lockword the attempt still owns from Set-time
// acquisition. Idempotent: entries already released — by a successful
// install, a failed commit's unlockWriteSet, or a previous abandon —
// are skipped by the ownership check.
func (eagerProtocol) abandon(tx *Tx) {
	releaseEagerLocks(tx, tx.eagerLocks)
	tx.eagerLocks = tx.eagerLocks[:0]
}

// abandonLevel releases the lockwords held only for level l's writes
// (a closed-nested child's partial rollback or an open-nested child's
// end; l is already unlinked from tx.cur): a variable also written by a
// surviving level keeps its lock.
func (eagerProtocol) abandonLevel(tx *Tx, l *level) {
	if len(tx.eagerLocks) == 0 {
		return
	}
	keep := tx.eagerLocks[:0]
	for _, c := range tx.eagerLocks {
		if _, ok := l.writes.get(c); ok && !writtenElsewhere(tx, c) {
			releaseIfOwned(c, tx.handle)
			continue
		}
		keep = append(keep, c)
	}
	for i := len(keep); i < len(tx.eagerLocks); i++ {
		tx.eagerLocks[i] = nil
	}
	tx.eagerLocks = keep
}

// writtenElsewhere reports whether c is written by any live level of
// tx, across open-nesting boundaries (the discarded level is not
// reachable from tx.cur when abandonLevel runs).
func writtenElsewhere(tx *Tx, c *varCore) bool {
	for lv := tx.cur; lv != nil; lv = lv.outer {
		if _, ok := lv.writes.get(c); ok {
			return true
		}
	}
	return false
}

// releaseEagerLocks unlocks every variable in locks still owned by
// tx's handle. The ownership check makes release safe against words
// already released and since re-acquired by another transaction: only
// the owner may mutate a locked word.
func releaseEagerLocks(tx *Tx, locks []*varCore) {
	for i, c := range locks {
		releaseIfOwned(c, tx.handle)
		locks[i] = nil
	}
}

// releaseIfOwned unlocks c if and only if h still owns it.
func releaseIfOwned(c *varCore, h *Handle) {
	if w := c.word.Load(); wordLocked(w) && c.owner.Load() == h {
		c.unlock()
	}
}
