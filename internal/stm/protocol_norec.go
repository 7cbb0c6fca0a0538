package stm

import "sync/atomic"

// NOrec: value-based validation over a single global sequence lock
// (Dalessandro, Spear, Scott, "NOrec: Streamlining STM by Abolishing
// Ownership Records", PPoPP 2010), adapted to this STM's boxed Vars.
//
// The protocol keeps no per-Var version traffic on the read side: a
// read is one atomic load of the variable's current value box plus one
// load of the sequence lock. The read set records the observed box;
// validation re-compares values (box pointer equality as the fast
// path), so a reader is only invalidated by commits that actually
// changed something it read. Writer commits serialize on norecSeq —
// CAS(rv → rv+1) to acquire, revalidate-on-CAS-failure, release at
// rv+2 — which makes the successful first-try CAS itself the commit
// validation: if the sequence has not moved since this transaction's
// last validation, no writer has committed, so every recorded value is
// still current.
//
// Interaction with the rest of the STM: writes are still installed
// through the per-Var lockwords, acquired before the global-clock tick
// that stamps the write version, exactly as TL2 installs — that
// preserves the MVCC-lite readAt invariant, so the snapshot path and
// GetCommitted work unchanged. SetCommitted bypasses norecSeq and is
// only safe, as documented, for single-threaded setup.
type norecProtocol struct{}

// norecSeq is the global sequence lock: even = free, odd = a writer is
// committing. Read versions under NOrec are (even) values of this
// sequence, not of the global clock.
var norecSeq atomic.Uint64

func (norecProtocol) Name() string { return "norec" }

// begin adopts the sequence value without waiting, rounded down to
// even if a writer holds the lock: with nothing read yet there is
// nothing to validate, and the first read or commit that finds the
// sequence moved extends past the writer.
func (norecProtocol) begin(t *Thread) uint64 { return norecSeq.Load() &^ 1 }

// read loads the variable's current box — immutable, so one atomic
// load yields a coherent (value, version) pair — and post-validates
// against the sequence lock: if any writer committed since this
// transaction's read version, every recorded value is re-compared and
// the read version moves forward (or the attempt aborts, as a
// violation if one landed during the wait).
func (norecProtocol) read(tx *Tx, c *varCore) any {
	box := c.val.Load()
	for tx.readVersion != norecSeq.Load() {
		if !norecExtend(tx, causeStaleRead) {
			tx.check()
			tx.bail(sigRetry, "stale read")
		}
		box = c.val.Load()
	}
	tx.cur.reads.put(c, box)
	return box.val
}

// observeWrite does nothing: NOrec is lazy, like TL2.
func (norecProtocol) observeWrite(tx *Tx, c *varCore) {}

func (norecProtocol) extend(tx *Tx) bool { return norecExtend(tx, causeStaleRead) }

// norecExtend is NOrec value-based extension: wait, within the spinWait
// budget, for a quiescent sequence value, re-compare every recorded
// read's current value with its observed value, and re-check the
// sequence; on success the read version moves to the validated sequence
// value. A changed value is attributed to cause, a writer that sits on
// the sequence lock past the budget to causeCommitLock. It never
// unwinds — a pending violation is left for the caller's check or the
// toPrepared CAS — so norecSeqAcquire runs it inside the commit window.
func norecExtend(tx *Tx, cause string) bool {
	for spin := 0; ; spin++ {
		s := norecSeq.Load()
		if s&1 != 0 {
			if !spinWait(tx.thread.Clock, spin) {
				tx.noteConflict(nil, nil, causeCommitLock)
				return false
			}
			continue
		}
		for l := tx.cur; l != nil; l = l.parent {
			if c := firstChangedValue(l.reads.entries); c != nil {
				tx.noteConflict(c, nil, cause)
				return false
			}
		}
		if norecSeq.Load() == s {
			tx.readVersion = s
			return true
		}
	}
}

// commit is the NOrec writer commit. Read-only transactions commit
// with no validation at all: every read was validated against the
// sequence when it happened, so the transaction serializes at its read
// version. Writers acquire the sequence lock by CAS(readVersion →
// readVersion+1); a failed CAS means some writer committed since the
// last validation, so the read set is revalidated by value and the CAS
// retried at the newer sequence.
// Once the lock is held no concurrent writer exists, so the held
// window only needs the per-Var installs — done through the lockwords,
// before the global-clock tick, to keep snapshot readers safe.
func (norecProtocol) commit(tx *Tx, l *level) bool {
	if len(l.writes.entries) == 0 {
		return tx.handle.toPrepared()
	}
	if !norecSeqAcquire(tx) {
		return false
	}
	rv := tx.readVersion
	buf := tx.thread.sortedWrites(l)
	if !lockWriteSet(tx, buf) {
		// Only a non-transactional SetCommitted can hold a lockword
		// while we hold the sequence lock; bail out rather than spin.
		norecSeqRelease(rv)
		return false
	}
	if !tx.handle.toPrepared() {
		unlockWriteSet(buf)
		norecSeqRelease(rv)
		return false
	}
	installWriteSet(buf, globalClock.Add(1))
	norecSeqRelease(rv + 2)
	return true
}

// norecSeqAcquire takes the sequence lock by CAS(readVersion →
// readVersion+1), revalidating by value and re-adopting the newer
// sequence on every CAS failure. On success norecSeq is odd and every
// other NOrec transaction system-wide stalls until norecSeqRelease —
// stmlint treats the acquire→release span as a hold window.
//
//stmlint:window open
func norecSeqAcquire(tx *Tx) bool {
	for !norecSeq.CompareAndSwap(tx.readVersion, tx.readVersion+1) {
		if !norecExtend(tx, causeCommitStale) {
			return false
		}
	}
	return true
}

// norecSeqRelease stores an even sequence value, reopening the lock:
// readVersion (abort — nothing was installed while odd, so readers'
// validations against the restored value still hold) or readVersion+2
// (successful commit).
//
//stmlint:window close
func norecSeqRelease(s uint64) {
	norecSeq.Store(s)
}

// firstChangedValue returns the first read in reads whose current
// committed value differs from the observed one (nil if none) — the
// value-based validation predicate. Box pointer equality is the fast
// path; distinct boxes holding equal values (a silent re-store) still
// validate, which is NOrec's advantage over version validation.
func firstChangedValue(reads []varEntry[*valBox]) *varCore {
	for _, e := range reads {
		if cur := e.c.val.Load(); cur != e.val && !valuesEqual(cur.val, e.val.val) {
			return e.c
		}
	}
	return nil
}

// valuesEqual compares two committed values, treating values of
// uncomparable dynamic types as unequal (conservative: forces an
// abort) instead of panicking.
func valuesEqual(a, b any) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}
