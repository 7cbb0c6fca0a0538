package stm

import (
	"runtime"
	"strconv"
	"sync/atomic"
)

// globalClock is the TL2 global version clock. It is package-global so
// that variables created by independent experiments in one process share
// a single monotonically increasing version space, which keeps version
// comparisons correct without threading a runtime object everywhere.
var globalClock atomic.Uint64

// globalVarID hands out the total order used to acquire write-set locks
// deadlock-free at commit.
var globalVarID atomic.Uint64

// Lockword layout (see DESIGN.md §4 "TL2 lockword"): a varCore's entire
// concurrency-control state is one uint64 — the commit version in the
// high 63 bits and a write-lock bit in bit 0 — so the unlocked fast
// paths (Var.Get's sample, peek, commit-time read validation) are plain
// atomic loads with no mutex and no CAS.
//
// Bit budget: versions are 63 bits wide. The global clock ticks once
// per writing commit (plus once per SetCommitted), so overflow needs
// 2^63 ≈ 9.2·10^18 commits — at an implausible 10^9 commits/second
// that is ~292 years of continuous running; overflow is unreachable in
// practice and the code does not attempt to handle wraparound.
const (
	lockBit      = uint64(1)
	versionShift = 1
	// maxVersion is the largest version the packed word can hold.
	maxVersion = uint64(1)<<63 - 1
)

// packWord builds a lockword from a version and a lock flag.
func packWord(ver uint64, locked bool) uint64 {
	w := ver << versionShift
	if locked {
		w |= lockBit
	}
	return w
}

// wordVersion and wordLocked unpack a lockword.
func wordVersion(w uint64) uint64 { return w >> versionShift }
func wordLocked(w uint64) bool    { return w&lockBit != 0 }

// valBox is one committed value together with the version of the
// commit that installed it. Boxes are immutable apart from prev, which
// links to the box the install displaced — the MVCC-lite history that
// lets snapshot readers find the newest value at or below their read
// version. install truncates the displaced box's own prev, so a var
// retains exactly one prior box: a snapshot reader lapped by two
// commits finds no box old enough and falls back to the retry path.
type valBox struct {
	val any
	ver uint64
	// prev is the displaced box (nil once truncated by the next
	// install). Atomic because truncation races with snapshot readers
	// walking the chain.
	prev atomic.Pointer[valBox]
}

// varCore is the untyped heart of a transactional variable: a boxed
// committed value, the packed versioned lockword of the commit that
// produced it, and an owner side-slot identifying the committing
// transaction while — and only while — the lock bit is set.
//
// Acquire/release protocol: a committer CASes the word from
// (ver, unlocked) to (ver, locked), then stores its handle into owner;
// install stores a fresh value box, clears owner, and releases by
// storing (newVer, unlocked) in one atomic store. While the lock bit is
// set only the holder mutates the word, so the holder may load+store it
// without CAS. The owner lives in a side-slot rather than in the word
// because a *Handle does not fit alongside a 63-bit version; readers
// that observe the lock bit before the owner store see a nil owner and
// conservatively treat the variable as locked by another transaction.
type varCore struct {
	id uint64
	// label is the variable's name in observability output (conflict
	// heatmaps, traces). Write it only during construction/setup —
	// before the variable is shared — so reads at event-emission time
	// need no synchronization.
	label string
	word  atomic.Uint64
	// val points to the newest committed value box (head of the
	// two-box history chain). install replaces the pointer, never a
	// published box's value, so a reader holding a stale box still
	// sees a coherent value.
	val atomic.Pointer[valBox]
	// owner is valid only while the lock bit is set in word.
	owner atomic.Pointer[Handle]
}

func newVarCore(initial any) *varCore {
	c := &varCore{id: globalVarID.Add(1)}
	c.val.Store(&valBox{val: initial})
	return c
}

// displayLabel names the variable in observability output, falling
// back to its allocation-ordered id.
func (c *varCore) displayLabel() string {
	if c.label != "" {
		return c.label
	}
	return "var#" + strconv.FormatUint(c.id, 10)
}

// spinWait is the one way an attempt waits on a word another transaction
// holds (a lockword mid-install, NOrec's sequence lock mid-commit): poll
// number spin, from 0, waits spinCycles and reports true; with spinBudget
// polls spent it reports false at once and the caller gives up. Every
// caller counts its polls, so no wait is unbounded
// (TestSpinWaitsAreBudgeted).
const spinBudget, spinCycles = 64, 4

func spinWait(clock Clock, spin int) bool {
	if spin >= spinBudget {
		return false
	}
	clock.Wait(spinCycles)
	return true
}

// sample returns the committed box of c without taking any lock: load
// the word, load the value box, and re-load the word. If the two word
// loads agree and the word is unlocked, no install completed in between
// (versions are monotonic, so the word cannot ABA), hence the box is the
// one installed at that version: its ver is the sampled version. While
// another transaction is mid-install the reader spins in virtual time
// and eventually bails.
func (c *varCore) sample(tx *Tx) *valBox {
	for spin := 0; ; spin++ {
		w := c.word.Load()
		if !wordLocked(w) {
			box := c.val.Load()
			if c.word.Load() == w {
				return box
			}
			// An install completed between the two word loads; the box
			// may not match the sampled version. Re-sample.
			continue
		}
		if c.owner.Load() == tx.handle {
			// Locked by this transaction's own commit machinery; the
			// current box is still the one at the word's version.
			return c.val.Load()
		}
		tx.check()
		if !spinWait(tx.thread.Clock, spin) {
			// The owner may itself be stalled behind us in some
			// larger scheme; give up the attempt rather than spin
			// forever.
			tx.noteConflict(c, c.owner.Load(), causeLockedVar)
			tx.bail(sigRetry, "variable locked by committer")
		}
	}
}

// peek reports the current version and whether the variable is
// write-locked by a transaction other than self. On an unlocked
// variable this is a single atomic load.
func (c *varCore) peek(self *Handle) (ver uint64, lockedByOther bool) {
	w := c.word.Load()
	if wordLocked(w) && c.owner.Load() != self {
		return wordVersion(w), true
	}
	return wordVersion(w), false
}

// tryLock attempts to acquire the write lock for h. It fails only if
// another transaction holds the lock; a CAS lost to a concurrent
// version install retries against the new word.
func (c *varCore) tryLock(h *Handle) bool {
	for {
		w := c.word.Load()
		if wordLocked(w) {
			return c.owner.Load() == h
		}
		if c.word.CompareAndSwap(w, w|lockBit) {
			c.owner.Store(h)
			return true
		}
	}
}

// unlock releases the write lock without changing the version (the
// failed-commit path). Holder-only: no CAS needed.
func (c *varCore) unlock() {
	c.owner.Store(nil)
	c.word.Store(c.word.Load() &^ lockBit)
}

// install publishes a new committed value at version wv and releases
// the lock in the same atomic store. Holder-only. The displaced box is
// retained behind the new one for snapshot readers, and its own prev
// is truncated first, bounding every var's history to one prior box
// regardless of write traffic.
func (c *varCore) install(val any, wv uint64) {
	box := &valBox{val: val, ver: wv}
	old := c.val.Load()
	old.prev.Store(nil)
	box.prev.Store(old)
	c.val.Store(box)
	c.owner.Store(nil)
	c.word.Store(packWord(wv, false))
}

// readAt is the MVCC-lite snapshot read: the newest committed value
// with version ≤ rv, found by walking the box chain — no lock, no CAS,
// no read-set entry. ok=false means the snapshot attempt must restart
// (and eventually fall back to the retry path): either both retained
// boxes are newer than rv (two commits lapped the reader), or a
// committer held the lockword for the whole spin budget.
//
// Safety of the unlocked walk: a commit acquires the var's lockword
// before it draws its write version from the global clock, and install
// publishes the new box before the single release store of the word.
// A reader that samples rv and then observes the word unlocked
// therefore knows every install at a version ≤ rv is fully present in
// the chain; any install that lands mid-walk carries a version > rv
// and only prepends. A concurrent truncation can cut the chain under
// the walk, but that yields nil — reported as shallow history, never a
// wrong value.
func (c *varCore) readAt(clock Clock, rv uint64) (any, bool) {
	for spin := 0; ; spin++ {
		w := c.word.Load()
		if !wordLocked(w) {
			for b := c.val.Load(); b != nil; b = b.prev.Load() {
				if b.ver <= rv {
					return b.val, true
				}
			}
			return nil, false
		}
		if !spinWait(clock, spin) {
			// A stalled committer holds the word; give up the attempt
			// rather than spin forever (the restart resamples rv).
			return nil, false
		}
	}
}

// Var is a transactional variable holding a value of type T. All reads
// and writes inside transactions go through Get and Set; vars give the
// STM the per-field conflict granularity that lets the STM-instrumented
// collections (internal/stmcol) exhibit exactly the memory-level
// conflicts the paper attributes to hash-table size fields and tree
// rotations.
type Var[T any] struct {
	core *varCore
}

// NewVar creates a transactional variable with an initial value. The
// initial value is published at version 0, visible to every transaction.
func NewVar[T any](initial T) *Var[T] {
	return &Var[T]{core: newVarCore(initial)}
}

// SetLabel names the variable in observability output (conflict
// heatmaps, Chrome traces); unlabelled vars appear as "var#<id>". Call
// it during construction, before the variable is shared with other
// threads. Returns v for chaining.
func (v *Var[T]) SetLabel(label string) *Var[T] {
	v.core.label = label
	return v
}

// Label returns the variable's observability label ("" if unset).
func (v *Var[T]) Label() string { return v.core.label }

// Get returns the variable's value as seen by tx: the transaction's own
// pending write if it has one (innermost nesting level first), otherwise
// a validated committed value. On a consistency violation the enclosing
// transaction (or nested level) aborts and retries via panic unwinding.
func (v *Var[T]) Get(tx *Tx) T {
	tx.check()
	c := v.core
	if tx.snapshot {
		// Snapshot mode: invisible read against the frozen clock-space
		// read version. Nothing is recorded, validated, or extended; a
		// writer can never observe — let alone abort — this reader.
		val, ok := c.readAt(tx.thread.Clock, tx.readVersion)
		if !ok {
			tx.bail(sigFallback, fallbackShallowHistory)
		}
		tx.tick(CostRead)
		return val.(T)
	}
	for l := tx.cur; l != nil; l = l.parent {
		if val, ok := l.writes.get(c); ok {
			tx.tick(CostRead)
			return val.(T)
		}
	}
	val := tx.thread.proto.read(tx, c)
	tx.tick(CostRead)
	return val.(T)
}

// Set buffers a write of val into tx's current nesting level (lazy
// versioning); it becomes globally visible only if the top-level
// transaction commits. Inside a snapshot (read-only) transaction a
// write cannot be honored — snapshot reads were never recorded, so
// there is nothing to validate a writing commit against — and the
// attempt restarts on the ordinary retry path instead.
func (v *Var[T]) Set(tx *Tx, val T) {
	tx.check()
	if tx.snapshot {
		tx.bail(sigFallback, fallbackWrite)
	}
	tx.thread.proto.observeWrite(tx, v.core)
	tx.cur.writes.put(v.core, val)
	tx.tick(CostWrite)
}

// GetCommitted returns the latest committed value without any
// transactional bookkeeping. Intended for initialization and for
// inspecting results after all transactions have finished; using it
// concurrently with committers yields an atomic but unordered snapshot
// (value boxes are immutable, so even a mid-install reader sees a
// coherent old-or-new value).
func (v *Var[T]) GetCommitted() T {
	return v.core.val.Load().val.(T)
}

// SetCommitted installs a value outside any transaction, as if by an
// instantly committing transaction: it acquires the lockword, installs
// at a fresh clock tick, and releases. Intended for single-threaded
// setup; it is nonetheless safe (if unordered) against concurrent
// committers.
func (v *Var[T]) SetCommitted(val T) {
	c := v.core
	for {
		w := c.word.Load()
		if wordLocked(w) {
			runtime.Gosched()
			continue
		}
		if c.word.CompareAndSwap(w, w|lockBit) {
			break
		}
	}
	c.install(val, globalClock.Add(1))
}
