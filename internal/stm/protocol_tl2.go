package stm

// TL2 through the Protocol seam: the global-version-clock protocol the
// STM was built around (DESIGN.md §4) — per-level read/write sets,
// lockword packing, read-version extension and the commit sequence.
// The eager variant embeds it and replaces observeWrite alone.
type tl2Protocol struct{}

func (tl2Protocol) Name() string { return "tl2" }

// begin samples the TL2 snapshot: the global version clock.
func (tl2Protocol) begin(t *Thread) uint64 { return globalClock.Load() }

// read is the TL2 invisible read: sample c without locking, extend the
// snapshot if the sampled box is too new, and record the box for
// commit-time validation of its version.
func (p tl2Protocol) read(tx *Tx, c *varCore) any {
	box := c.sample(tx)
	for box.ver > tx.readVersion {
		if !p.extend(tx) {
			tx.bail(sigRetry, "stale read")
		}
		// The extension validated the reads recorded so far, not this
		// one: a commit between the sample and the new read point may
		// have replaced what was sampled. Sample again under it.
		box = c.sample(tx)
	}
	tx.cur.reads.put(c, box)
	return box.val
}

// observeWrite does nothing: TL2 locks the write set at commit.
func (tl2Protocol) observeWrite(tx *Tx, c *varCore) {}

// extend attempts TL2 read-version extension: if every read recorded so
// far is still at its recorded version and unlocked, the snapshot can
// be moved forward to the current global clock, allowing a read of a
// newer variable (or a nested retry) to proceed without aborting.
func (tl2Protocol) extend(tx *Tx) bool {
	now := globalClock.Load()
	for l := tx.cur; l != nil; l = l.parent {
		if c := firstInvalid(l.reads.entries, tx.handle); c != nil {
			tx.noteConflict(c, nil, causeStaleRead)
			return false
		}
	}
	tx.readVersion = now
	return true
}

// commit is the single lock-sort-validate-install sequence shared by
// top-level and open-nested commits (and by the eager variant, whose
// Set-time acquisitions make lockWriteSet's tryLocks instant): acquire
// the write set's lockwords in variable-ID order (deadlock freedom),
// validate the read set, for a top-level commit (doPrepare) pass the
// point of no return, and install every write at one fresh global-clock
// tick. On any failure all locks are released, nothing is installed,
// and for doPrepare the handle is left un-Prepared so the caller rolls
// back.
func (tl2Protocol) commit(tx *Tx, l *level, doPrepare bool) bool {
	if len(l.writes.entries) == 0 {
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
	if c := firstInvalid(l.reads.entries, tx.handle); c != nil {
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
func lockWriteSet(tx *Tx, buf []varEntry[any]) bool {
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
func unlockWriteSet(buf []varEntry[any]) {
	for _, e := range buf {
		e.c.unlock()
	}
}

// installWriteSet publishes every buffered write at version wv,
// releasing each lockword in the same store. Closes the lockword hold
// window on the success path.
//
//stmlint:window close
func installWriteSet(buf []varEntry[any], wv uint64) {
	for _, e := range buf {
		e.c.install(e.val, wv)
	}
}
