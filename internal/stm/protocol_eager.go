package stm

// TL2 with encounter-time (eager) write locking: TL2 in every hook but
// observeWrite, where Set acquires the variable's lockword immediately
// instead of at commit, so write-write conflicts surface at the write.
// Acquisition is non-blocking — a locked variable aborts the attempt
// rather than waiting — which keeps the protocol deadlock-free without
// ordering Set-time acquisitions; the contention manager's backoff
// breaks livelock, as it already does for commit-time conflicts.
//
// Writes stay buffered (lazy versioning): holding the lockword from
// Set to commit means TL2's lockWriteSet finds every lock already
// owned and the install is conflict-free, but an abort still only has
// to release lockwords — no undo log. Acquired lockwords are tracked
// in Tx.eagerLocks, one list for the attempt at every nesting depth,
// and released by Tx.releaseEagerLocks and Tx.releaseLevelLocks on
// every rollback path, of the attempt or of one level; release is
// conditional on still owning the word because a child's install or a
// failed commit's unlock may already have released it.
type eagerProtocol struct{ tl2Protocol }

func (eagerProtocol) Name() string { return "tl2-eager" }

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

// releaseEagerLocks releases every lockword the attempt still owns from
// Set-time acquisition; a no-op unless the protocol is tl2-eager. Runs
// on every rollback, before the abort-guard footprint is taken.
// Idempotent: entries already released — by a successful install, a
// failed commit's unlockWriteSet, or a previous call — are skipped by
// the ownership check.
func (tx *Tx) releaseEagerLocks() {
	for i, c := range tx.eagerLocks {
		releaseIfOwned(c, tx.handle)
		tx.eagerLocks[i] = nil
	}
	tx.eagerLocks = tx.eagerLocks[:0]
}

// releaseLevelLocks releases the lockwords held only for level l's
// writes, l being a level that is gone — a closed-nested child rolled
// back, an open-nested child's attempt over, committed or not (after a
// commit the install released the words; this clears the tracking). l
// is already unlinked from tx.cur: a variable also written by a
// surviving level keeps its lock.
func (tx *Tx) releaseLevelLocks(l *level) {
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
	clear(tx.eagerLocks[len(keep):])
	tx.eagerLocks = keep
}

// writtenElsewhere reports whether c is written by any live level of
// tx, across open-nesting boundaries (the discarded level is not
// reachable from tx.cur when releaseLevelLocks runs).
func writtenElsewhere(tx *Tx, c *varCore) bool {
	for lv := tx.cur; lv != nil; lv = lv.outer {
		if _, ok := lv.writes.get(c); ok {
			return true
		}
	}
	return false
}

// releaseIfOwned unlocks c if and only if h still owns it. The
// ownership check makes release safe against words already released
// and since re-acquired by another transaction: only the owner may
// mutate a locked word.
func releaseIfOwned(c *varCore, h *Handle) {
	if w := c.word.Load(); wordLocked(w) && c.owner.Load() == h {
		c.unlock()
	}
}
