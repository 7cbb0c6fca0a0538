package stm

// TL2 through the Protocol seam: the global-version-clock protocol the
// STM was built around (DESIGN.md §4), unchanged in behaviour — the
// inline read/write sets, lockword packing, read-version extension and
// commit sequence are exactly the pre-seam code paths, moved here so
// alternative protocols can replace them hook by hook.
type tl2Protocol struct{}

// protoTL2 is the registered instance; NewThread starts on it.
var protoTL2 Protocol = registerProtocol(tl2Protocol{})

func (tl2Protocol) Name() string { return "tl2" }

// begin samples the TL2 snapshot: the global version clock.
func (tl2Protocol) begin(t *Thread) uint64 { return globalClock.Load() }

// read is the TL2 invisible read: sample a consistent (value, version)
// pair, extend the snapshot if the version is too new, and record the
// read for commit-time validation.
func (tl2Protocol) read(tx *Tx, c *varCore) any {
	return tl2Read(tx, c)
}

// observeWrite does nothing: TL2 locks the write set at commit.
func (tl2Protocol) observeWrite(tx *Tx, c *varCore) {}

func (tl2Protocol) extend(tx *Tx) bool { return tl2Extend(tx) }

func (tl2Protocol) commit(tx *Tx, l *level, doPrepare bool) bool {
	return tl2Commit(tx, l, doPrepare)
}

// abandon/abandonLevel: lazy locking holds nothing between Set and
// commit, so an aborted attempt has nothing to release.
func (tl2Protocol) abandon(tx *Tx)                {}
func (tl2Protocol) abandonLevel(tx *Tx, l *level) {}

// tl2Read samples c without locking and validates the version against
// tx's snapshot, extending the snapshot when possible. Shared with the
// eager variant, whose read side is identical.
func tl2Read(tx *Tx, c *varCore) any {
	val, ver := c.sample(tx)
	for ver > tx.readVersion {
		if !tl2Extend(tx) {
			tx.bail(sigRetry, "stale read")
		}
		// The extension validated the reads recorded so far, not this
		// one: a commit between the sample and the new read point may
		// have replaced what was sampled. Sample again under it.
		val, ver = c.sample(tx)
	}
	tx.cur.reads.put(c, ver, nil)
	return val
}

// tl2Extend attempts TL2 read-version extension: if every read recorded
// so far is still at its recorded version and unlocked, the snapshot can
// be moved forward to the current global clock, allowing a read of a
// newer variable (or a nested retry) to proceed without aborting.
func tl2Extend(tx *Tx) bool {
	now := globalClock.Load()
	for l := tx.cur; l != nil; l = l.parent {
		if c := l.reads.firstInvalid(tx.handle); c != nil {
			tx.noteConflict(c, nil, causeStaleRead)
			return false
		}
	}
	tx.readVersion = now
	return true
}

// tl2Commit is the single lock-sort-validate-install sequence shared by
// top-level and open-nested commits (and by the eager variant, whose
// Set-time acquisitions make lockWriteSet's tryLocks instant): acquire
// the write set's lockwords in variable-ID order (deadlock freedom),
// validate the read set, for a top-level commit (doPrepare) pass the
// point of no return, and install every write at one fresh global-clock
// tick. On any failure all locks are released, nothing is installed,
// and for doPrepare the handle is left un-Prepared so the caller rolls
// back.
func tl2Commit(tx *Tx, l *level, doPrepare bool) bool {
	if l.writes.len() == 0 {
		// Read-only fast path: every read was validated against the
		// snapshot when it happened, so the transaction is serializable
		// at readVersion. For a top-level commit only the violation
		// race remains; an open-nested child has nothing to do.
		return !doPrepare || tx.handle.toPrepared()
	}
	buf := tx.thread.sortedWrites(l)
	if !lockWriteSet(tx, buf) {
		return false
	}
	if c := l.reads.firstInvalid(tx.handle); c != nil {
		tx.noteConflict(c, nil, causeCommitStale)
		unlockWriteSet(buf)
		return false
	}
	if doPrepare && !tx.handle.toPrepared() {
		unlockWriteSet(buf)
		return false
	}
	installWriteSet(buf, globalClock.Add(1))
	return true
}

// lockWriteSet acquires the lockword of every write in buf (which is
// sorted by variable ID) for tx, releasing the acquired prefix and
// recording conflict attribution if any acquisition fails. It opens
// the protocol's lockword hold window: everything until the matching
// unlockWriteSet/installWriteSet runs with committed state locked, and
// must not block (stmlint commit-window-blocking).
//
//stmlint:window open
func lockWriteSet(tx *Tx, buf []writeEntry) bool {
	for i, e := range buf {
		if !e.c.tryLock(tx.handle) {
			tx.noteConflict(e.c, e.c.owner.Load(), causeCommitLock)
			unlockWriteSet(buf[:i])
			return false
		}
	}
	return true
}

// unlockWriteSet unlocks the given write-set prefix after a failed
// commit, leaving versions unchanged. Closes the lockword hold window.
//
//stmlint:window close
func unlockWriteSet(buf []writeEntry) {
	for _, e := range buf {
		e.c.unlock()
	}
}

// installWriteSet publishes every buffered write at version wv,
// releasing each lockword in the same store. Closes the lockword hold
// window on the success path.
//
//stmlint:window close
func installWriteSet(buf []writeEntry, wv uint64) {
	for _, e := range buf {
		e.c.install(e.val, wv)
	}
}
