package stm

import (
	"cmp"
	"fmt"
	"slices"

	"tcc/internal/obs"
)

// signal is the panic payload of non-local transaction control flow, and
// the one way out of a body other than returning: catch turns whatever
// unwound it into one. Each Thread raises its own (Thread.raise), so an
// abort, a violation or a tx.Abort allocates nothing; whoever catches it
// copies it out by value before any handler runs, because a handler may
// raise again during the rollback. What else a kind carries travels
// inside err.
type signal struct {
	kind   sigKind
	reason string
	err    error // sigUserAbort: Atomic's result; sigPanic: a *foreignPanic
}

type sigKind int

const (
	// sigNone: the body returned; no signal unwound it.
	sigNone sigKind = iota
	// sigRetry: a memory-level conflict; the innermost retryable scope
	// (nested level or top-level attempt) re-executes.
	sigRetry
	// sigViolated: another transaction performed a program-directed
	// abort of this one; always unwinds to the top level, which rolls
	// back and retries.
	sigViolated
	// sigUserAbort: tx.Abort(err) was called; unwinds to the top level,
	// which rolls back and returns err to the caller of Atomic.
	sigUserAbort
	// sigFallback: a snapshot (read-only) attempt cannot proceed in
	// snapshot mode — the body turned out to write, registered a
	// handler, or a var's retained history was too shallow. The
	// attempt restarts: with a fresh read version for shallow history,
	// or on the ordinary retry path with snapshot mode off. Never
	// counted as an abort; nothing was published or locked.
	sigFallback
	// sigPanic: the body panicked with a value that is not a signal;
	// unwinds like sigUserAbort to the top level, which rolls back and
	// re-panics the original value into the caller of Atomic.
	sigPanic
)

// foreignPanic carries the recovered value in a sigPanic signal's err.
type foreignPanic struct{ val any }

func (p *foreignPanic) Error() string { return fmt.Sprint("stm: panic in transaction: ", p.val) }

// Fallback reasons, as constant strings so raising one never
// allocates. Shallow history restarts the snapshot attempt with a
// fresh read version; everything else drops to the retry path.
const (
	fallbackShallowHistory = "snapshot history too shallow"
	fallbackWrite          = "write inside read-only transaction"
	fallbackHandler        = "handler registration inside read-only transaction"
	fallbackOpen           = "open nesting inside read-only transaction"
)

func (s *signal) String() string {
	return fmt.Sprintf("stm signal %d (%s)", s.kind, s.reason)
}

// registration is one commit or abort handler with the guard its
// registrant named for it. The guards a transaction must hold are read
// off its registrations when it acquires them (gatherGuards) and kept
// nowhere else. fn is nil for a registration that only names a guard
// (AddTopGuard).
type registration struct {
	g  *Guard
	fn func()
}

// indexAt is how many entries a var set holds before it builds an index
// map. Most transactions in the paper's workloads touch a handful of vars
// per level (a bucket head, a size field, a counter), so the common case
// finds an entry by a short scan and keeps no map.
const indexAt = 8

// varEntry is one var-set entry: the variable and what the level holds
// for it — in a read set the committed value box the transaction
// observed (TL2 and its eager variant compare the box's version with
// the lockword, NOrec its value), in a write set the pending value.
type varEntry[V any] struct {
	c   *varCore
	val V
}

// varSet maps varCore to V, deduplicated by core: a read set (V =
// *valBox) or a write set (V = any) of one nesting level. entries is in
// first-access order, which is the order every walker — validation,
// merge, attribution — visits it in; index locates an entry once there
// are more than indexAt. Both are kept across reset, so a recycled level
// allocates nothing in steady state.
type varSet[V any] struct {
	entries []varEntry[V]
	index   map[*varCore]int
}

// find returns the position of c's entry, or -1.
func (s *varSet[V]) find(c *varCore) int {
	if len(s.entries) > indexAt {
		if i, ok := s.index[c]; ok {
			return i
		}
		return -1
	}
	for i := range s.entries {
		if s.entries[i].c == c {
			return i
		}
	}
	return -1
}

// get returns the value held for c, if any.
func (s *varSet[V]) get(c *varCore) (val V, ok bool) {
	if i := s.find(c); i >= 0 {
		return s.entries[i].val, true
	}
	return val, false
}

// put holds val for c, overwriting any existing entry.
func (s *varSet[V]) put(c *varCore, val V) {
	if i := s.find(c); i >= 0 {
		s.entries[i].val = val
		return
	}
	s.add(c, val)
}

// add appends an entry for c, which must not have one.
func (s *varSet[V]) add(c *varCore, val V) {
	s.entries = append(s.entries, varEntry[V]{c, val})
	switch n := len(s.entries); {
	case n == indexAt+1:
		if s.index == nil {
			s.index = make(map[*varCore]int)
		}
		for i, e := range s.entries {
			s.index[e.c] = i
		}
	case n > indexAt+1:
		s.index[c] = n - 1
	}
}

// reset empties the set for reuse, dropping core pointers and values so
// recycled levels do not pin dead variables.
func (s *varSet[V]) reset() {
	clear(s.entries)
	s.entries = s.entries[:0]
	clear(s.index)
}

// firstInvalid returns the first read in reads that is no longer at its
// recorded version or is locked by a transaction other than self (nil
// if all are valid) — the shared predicate of TL2 read-version
// extension and commit-time read validation, returning the offending
// variable so rollbacks can be attributed to it. One atomic load per
// unlocked entry.
func firstInvalid(reads []varEntry[*valBox], self *Handle) *varCore {
	for _, e := range reads {
		cur, lockedByOther := e.c.peek(self)
		if lockedByOther || cur != e.val.ver {
			return e.c
		}
	}
	return nil
}

// level is one nesting level of a transaction: private read and write
// sets plus the commit/abort handlers registered while it was current.
// Committing a closed-nested level merges everything into its parent;
// aborting it discards the sets, runs its abort handlers (compensation
// for open-nested effects made at this level), and discards its commit
// handlers — the handler semantics of paper §4. The root level, the one
// begin pushes, has no parent. An Open section pushes no level: it runs
// on the current one. Levels are recycled through the owning Thread's
// pool, so steady-state transactions allocate no per-attempt bookkeeping.
type level struct {
	parent   *level
	reads    varSet[*valBox]
	writes   varSet[any]
	onCommit []registration
	onAbort  []registration
}

// reset clears the level for reuse. Handler slices keep their backing
// arrays (the capacity is the point of recycling).
func (l *level) reset() {
	l.parent = nil
	l.reads.reset()
	l.writes.reset()
	l.truncate(0, 0)
}

// truncate drops every registration past the first nc commit and na abort
// ones, clearing the dropped entries so captured state is not pinned
// between transactions.
func (l *level) truncate(nc, na int) {
	clear(l.onCommit[nc:])
	l.onCommit = l.onCommit[:nc]
	clear(l.onAbort[na:])
	l.onAbort = l.onAbort[:na]
}

// txMode is what a Var access does (Tx.mode).
type txMode uint8

const (
	// modeTx: the ordinary path — reads and writes go through the
	// protocol and the level chain.
	modeTx txMode = iota
	// modeSnapshot marks a read-only MVCC-lite attempt: Var.Get reads the
	// newest value box at or below readVersion (readAt) without
	// recording, validating, locking, or CASing anything, Var.Set falls
	// back, and commit is a no-op. Set by begin for each pure snapshot
	// attempt of Thread.AtomicRead and by nothing else.
	modeSnapshot
	// modeOpen: the body of an Open section, where a Var access panics.
	modeOpen
)

// errVarInOpen is what a Var access inside an Open section panics with.
const errVarInOpen = "stm: Var access inside tx.Open"

// Tx is the transaction; a Thread owns exactly one and reuses it for
// every transaction it runs. Nesting is never a second Tx: Nested pushes a
// level on the current one, Open runs a section on the current level (see
// Open). Nor does an attempt get a Handle of its own: every one runs
// under the Thread's.
type Tx struct {
	thread *Thread
	// handle is the Thread's, naming the running attempt at every nesting
	// depth, so a semantic lock an open-nested section takes is owned by
	// the transaction (paper §3.1: "The owner of a lock is the top-level
	// transaction at the time of the read operation, not the open-nested
	// transaction that actually performs the read").
	handle *Handle
	// readVersion is the attempt's read point, in whatever space the
	// active protocol's begin hook samples (TL2: the global version clock;
	// NOrec: the commit sequence lock, even, and possibly already passed by
	// a writer that held it at begin); extend moves it forward. A pure
	// snapshot attempt never calls the hook: its read point is the global
	// clock under every protocol, the space readAt compares versions in.
	readVersion uint64
	// eagerLocks tracks the lockwords the attempt acquired at Set time, at
	// any depth, under tl2-eager, for releaseEagerLocks and
	// releaseLevelLocks to release on rollback. Always empty under tl2 and
	// norec, which makes both calls no-ops there.
	eagerLocks []*varCore
	cur        *level
	// attempt counts restarts, feeding the contention manager's backoff.
	attempt int
	// mode is what a Var access does at this point of the attempt; one
	// test of it keeps both exceptions off Var.Get's fast path.
	mode txMode

	// Lifecycle-reporting state (lifecycle.go). tracer and mon are the
	// two optional sinks as edgeBegin found them at the start of the
	// attempt (nil and false = the fast path); txid is the
	// process-global transaction id, assigned lazily when a tracer is
	// active; firstBirth is the worker time of the first attempt, for
	// whole-transaction latency.
	tracer     obs.Tracer
	mon        bool
	txid       uint64
	firstBirth uint64
	// conflict is the pending attribution noteConflict recorded, and
	// gwaits / gwaitOn / gwaitNs the guard contention lockContended
	// recorded (guards blocked on, the last one, wall nanoseconds
	// blocked): plain field stores inside a hold window, each consumed
	// by the next edge that reports it, after the window has closed.
	conflict conflictRec
	gwaits   int
	gwaitOn  *Guard
	gwaitNs  uint64
}

// rest ends the transaction: levels to the pool, every field zero but
// the eager-lock list, cleared and kept, and the thread's signal cleared
// so it pins no tx.Abort error. Thread.run defers it, so no exit, a panic
// included, leaves an attempt's state behind.
func (tx *Tx) rest() {
	t := tx.thread
	t.releaseLevels(tx)
	clear(tx.eagerLocks)
	*tx = Tx{thread: t, eagerLocks: tx.eagerLocks[:0]}
	t.sig = signal{}
	t.inTx = false
}

// Thread returns the worker this transaction runs on.
func (tx *Tx) Thread() *Thread { return tx.thread }

// Handle returns the handle of the running attempt, suitable for use as
// the owner of semantic locks and as a target of Violate. It names this
// attempt only; see Handle for how long a holder may keep it.
func (tx *Tx) Handle() *Handle { return tx.handle }

// Attempt returns how many times this top-level transaction has been
// restarted (0 on the first attempt).
func (tx *Tx) Attempt() int { return tx.attempt }

// IsSnapshot reports whether the top-level transaction is running in
// snapshot (read-only) mode. A collection branches on it only for a read
// it can answer from committed state without registering a handler;
// any registration falls the transaction back to the retry path.
func (tx *Tx) IsSnapshot() bool { return tx.mode == modeSnapshot }

// OnCommitGuarded registers fn to run if the transaction commits. The
// handler is associated with the current nesting level: it is discarded
// if that level aborts, promoted to the parent when the level commits,
// and runs (in registration order) after the top-level transaction's
// memory commit succeeds. An Open section registers on the level it
// runs in.
//
// Every registration names its guard: the commit protocol acquires g
// (with the rest of the transaction's guard footprint, in id order)
// before the point of no return and holds it until every commit handler
// has run, making fn atomic with the memory commit with respect to all
// other transactions guarded by g. Code tied to a collection instance
// passes that instance's Guard, so disjoint footprints commit in
// parallel.
func (tx *Tx) OnCommitGuarded(g *Guard, fn func()) {
	tx.snapshotFallback()
	tx.cur.onCommit = append(tx.cur.onCommit, registration{g, fn})
}

// snapshotFallback drops a snapshot attempt to the retry path when the
// body does something a read-only transaction cannot honor (handler
// registration implies effects to publish or compensate).
func (tx *Tx) snapshotFallback() {
	if tx.mode == modeSnapshot {
		tx.bail(sigFallback, fallbackHandler)
	}
}

// OnAbortGuarded registers fn to run if the level it is associated with
// — and therefore the work it compensates for — is rolled back: it runs
// (newest-first) when that level or any enclosing level aborts, and is
// discarded once the top-level transaction commits. Abort handlers are
// the compensation mechanism that undoes effects published by
// open-nested sections (paper §4). g is held while fn compensates,
// whether the whole transaction or only a closed-nested level rolls
// back (and, because an abort handler may still be pending when the
// transaction commits, also during the commit window).
func (tx *Tx) OnAbortGuarded(g *Guard, fn func()) {
	tx.snapshotFallback()
	tx.cur.onAbort = append(tx.cur.onAbort, registration{g, fn})
}

// OnTopCommitGuarded registers a commit handler at the top-level
// transaction's root nesting level, regardless of the current nesting
// depth. The transactional collection classes use it (together with
// OnTopAbortGuarded) to implement the paper's §5 guideline of a single
// commit handler and a single abort handler per transaction and
// collection, registered by the first operation; see the internal/core
// package documentation for the resulting closed-nesting caveat.
func (tx *Tx) OnTopCommitGuarded(g *Guard, fn func()) {
	tx.snapshotFallback()
	l := tx.rootLevel()
	l.onCommit = append(l.onCommit, registration{g, fn})
}

// OnTopAbortGuarded registers an abort handler at the root level; it
// runs if and only if the whole transaction rolls back.
func (tx *Tx) OnTopAbortGuarded(g *Guard, fn func()) {
	tx.snapshotFallback()
	l := tx.rootLevel()
	l.onAbort = append(l.onAbort, registration{g, fn})
}

// AddTopGuard widens the top-level transaction's guard footprint with g
// without registering a handler: a root-level abort registration with
// nothing to run, so the commit protocol and any rollback of the whole
// transaction acquire g in id order alongside the guards that do carry
// handlers. Striped collections use this when a transaction's single
// commit/abort handler pair is already registered under the first
// stripe it touched and a later operation touches another stripe: the
// handler will walk every touched stripe, so each additional stripe's
// guard must be in the footprint before the handler window opens.
func (tx *Tx) AddTopGuard(g *Guard) { tx.OnTopAbortGuarded(g, nil) }

// rootLevel returns the level begin pushed, at any nesting depth.
func (tx *Tx) rootLevel() *level {
	l := tx.cur
	for l.parent != nil {
		l = l.parent
	}
	return l
}

// Poll gives the STM an opportunity to observe a pending violation in
// the middle of long straight-line computation; it unwinds to the
// top-level retry loop if another transaction has aborted this one.
func (tx *Tx) Poll() { tx.check() }

// Abort rolls the transaction back and makes Atomic return err without
// retrying (the self-abort of paper §4, for consistency violations
// detected by the program).
func (tx *Tx) Abort(err error) {
	tx.thread.raise(signal{kind: sigUserAbort, reason: "self abort", err: err})
}

// check unwinds if this transaction has been violated.
func (tx *Tx) check() {
	if tx.handle.violated() {
		tx.thread.raise(signal{kind: sigViolated, reason: tx.handle.ViolationReason()})
	}
}

// banInOpen panics inside an Open section: the section has no read
// version or write set of its own (see Tx.Open).
func (tx *Tx) banInOpen() {
	if tx.mode == modeOpen {
		panic(errVarInOpen)
	}
}

// bail unwinds with the given signal kind.
func (tx *Tx) bail(kind sigKind, reason string) {
	tx.thread.raise(signal{kind: kind, reason: reason})
}

// raise unwinds with s, carried in the thread's one signal.
func (t *Thread) raise(s signal) {
	t.sig = s
	panic(&t.sig)
}

func (tx *Tx) tick(cycles uint64) { tx.thread.Clock.Tick(cycles) }

// Nested runs fn as a closed-nested transaction with partial rollback:
// a memory conflict inside fn rolls back and retries only fn, not the
// enclosing transaction. On success the child's reads, writes and
// handlers merge into the parent level. If fn returns an error the
// child aborts (its abort handlers run, its buffered writes vanish) and
// the error is returned to the caller, with the parent still viable.
//
// The paper requires this so commit handlers that apply buffered
// collection updates can conflict and replay without re-executing the
// long-running parent (§4 "Nested transactions: open and closed").
func (tx *Tx) Nested(fn func() error) error {
	t := tx.thread
	for childAttempt := 0; ; childAttempt++ {
		tx.check()
		child := t.getLevel(tx.cur)
		tx.cur = child
		err, sig := runBody(fn)
		tx.cur = child.parent
		if sig.kind == sigNone && err == nil {
			// Child commits: merge into parent.
			child.mergeInto(tx.cur)
			t.putLevel(child)
			return nil
		}
		// The child level is rolled back, whatever ended it: release the
		// eager lockwords held only for it, compensate, recycle.
		tx.releaseLevelLocks(child)
		panicked := tx.compensate(child, child.parent)
		t.putLevel(child)
		if panicked != nil {
			panic(panicked)
		}
		switch {
		case sig.kind == sigNone:
			// Aborted by user request, the parent still viable.
			return err
		case sig.kind != sigRetry:
			// Violation, user abort or panic of the whole transaction.
			t.raise(sig)
		}
		// Memory conflict inside the child: partial rollback. The retry can
		// only make progress if the snapshot extends past the conflicting
		// commit; otherwise an enclosing read is stale and everything restarts.
		tx.edgeNestedRetry()
		if !t.proto.extend(tx) {
			tx.check() // a violation that landed during the wait wins
			t.raise(sig)
		}
		tx.stall(childAttempt)
	}
}

// mergeInto merges a committed child level into its parent: reads are
// added if the parent has no entry (the parent's older observation
// wins), writes overwrite, handlers append in registration order.
func (child *level) mergeInto(parent *level) {
	for _, e := range child.reads.entries {
		if parent.reads.find(e.c) < 0 {
			parent.reads.add(e.c, e.val)
		}
	}
	for _, e := range child.writes.entries {
		parent.writes.put(e.c, e.val)
	}
	parent.onCommit = append(parent.onCommit, child.onCommit...)
	parent.onAbort = append(parent.onAbort, child.onAbort...)
}

// catch is the deferred recover runBody and runTx share: it copies into
// *sig the signal that unwound the body, a panic value that is not one
// wrapped as sigPanic. A runtime.Goexit (t.FailNow in a body) recovers as
// nil and is not converted: the goroutine goes on exiting.
func catch(sig *signal) {
	switch r := recover().(type) {
	case nil:
	case *signal:
		*sig = *r
	default:
		*sig = signal{kind: sigPanic, reason: "panic", err: &foreignPanic{r}}
	}
}

// runBody executes fn, returning its error or a copy of the signal that
// unwound it (kind sigNone if none did).
func runBody(fn func() error) (err error, sig signal) {
	defer catch(&sig)
	err = fn()
	return
}

// runTx executes fn(tx) like runBody, without allocating an adapter
// closure on the retry path.
func runTx(fn func(*Tx) error, tx *Tx) (err error, sig signal) {
	defer catch(&sig)
	err = fn(tx)
	return
}

// commit attempts the top-level commit: acquire the transaction's guard
// footprint in id order (blocking), run the protocol's commit (which only
// try-locks, so it cannot deadlock against the guards) through the point
// of no return, then run commit handlers in registration order.
// The guard footprint is every guard a commit or abort registration of
// the root level names: a transaction that registered only an abort
// handler with a collection still serializes its commit against that
// collection's other users, which is what makes the collection's
// semantic conflict detection atomic with the memory commit (see
// Guard). Transactions with disjoint footprints — or none — do not
// serialize against each other at all. A pure snapshot attempt has no
// commit protocol to run: it serializes at its read version.
//
// It reports whether the transaction committed and the first value a
// commit handler panicked with: that is past the point of no return, so
// the transaction committed, and the caller re-panics once it has said so.
func (tx *Tx) commit() (ok bool, panicked any) {
	if tx.mode == modeSnapshot {
		return true, nil
	}
	l := tx.cur
	if l.parent != nil {
		panic("stm: commit with open nested level")
	}
	ok, panicked = tx.window(l, nil, true)
	if ok {
		tx.tick(CostCommitBase + CostCommitPerWrite*uint64(len(l.writes.entries)))
		tx.thread.flushDeferred()
	}
	return ok, panicked
}

// compensate rolls back the open-nested effects of the levels from `from`
// out to, and excluding, stop (nil: the whole chain), running their abort
// handlers newest-first, inner level first. It returns the first value one
// panicked with, for the caller to re-panic once its rollback is complete.
//
// A partial rollback (Tx.Nested passes the child alone) blocks on guards
// mid-body. That cannot deadlock: the body holds no guard here
// (collections release theirs before an open-nested section returns, and
// stmlint's guard-order rule reports a Nested call inside a hold window),
// and the lockwords an encounter-time attempt still holds are only ever
// try-locked by others, so nobody who holds a guard waits for this one.
func (tx *Tx) compensate(from, stop *level) (panicked any) {
	_, panicked = tx.window(from, stop, false)
	return panicked
}

// window is the one handler window, commit's and compensate's, and the
// one place handlers run: hold the guards the abort registrations of the
// levels from..stop name — and, committing, from's commit registrations —
// taken in id order, while the handlers run, so each is atomic with
// respect to the commits of other transactions sharing its collection.
// The guards are released by defer: nothing that happens in the window
// can leave one locked, and a guard wait is reported once they are free.
// No clock time is charged inside (the callers tick afterwards).
//
// Every handler runs, a panicking one notwithstanding (each applies or
// undoes its own collection's effects; skipping the rest would leave
// semantic locks with a dead attempt), and the first value one panicked
// with is returned: re-panicked, it supersedes whatever was unwinding.
func (tx *Tx) window(from, stop *level, commit bool) (committed bool, panicked any) {
	t := tx.thread
	buf := t.guardBuf[:0]
	if commit {
		buf = gatherGuards(buf, from.onCommit)
	}
	for l := from; l != stop; l = l.parent {
		buf = gatherGuards(buf, l.onAbort)
	}
	t.guardBuf = buf
	gs := sortGuards(buf)
	defer tx.edgeGuardWaits() // deferred first: runs after the release
	acquireGuards(tx, gs)
	defer releaseGuards(gs)
	if commit {
		if !t.proto.commit(tx, from) {
			return false, nil
		}
		tx.handle.setCommitted()
		for _, r := range from.onCommit {
			protect(r.fn, &panicked)
			t.Stats.HandlerRuns++
		}
		return true, panicked
	}
	for l := from; l != stop; l = l.parent {
		for i := len(l.onAbort) - 1; i >= 0; i-- {
			if fn := l.onAbort[i].fn; fn != nil {
				protect(fn, &panicked)
			}
		}
	}
	return false, panicked
}

// protect runs one handler, keeping the first value any panicked with (a
// runtime.Goexit goes on exiting, through the window's deferred release).
// A signal is kept as a copy: a later handler may raise the thread's one
// signal again.
func protect(fn func(), first *any) {
	defer func() {
		if r := recover(); r != nil && *first == nil {
			if s, ok := r.(*signal); ok {
				c := *s
				r = &c
			}
			*first = r
		}
	}()
	fn()
}

// sortedWrites copies l's write set into the thread's scratch buffer,
// reused across commits, sorted by variable ID.
func (t *Thread) sortedWrites(l *level) []varEntry[any] {
	t.commitBuf = append(t.commitBuf[:0], l.writes.entries...)
	slices.SortFunc(t.commitBuf, func(a, b varEntry[any]) int { return cmp.Compare(a.c.id, b.c.id) })
	return t.commitBuf
}

// rollback ends an attempt that did not commit, whatever ended it:
// discard the buffered writes, compensate every level's open-nested
// effects, report the edge. A pure snapshot attempt has only the report:
// it recorded, locked and published nothing. A transaction that
// registered no abort handlers — or only commit handlers — acquires no
// guard at all: commit registrations are irrelevant once the transaction
// is rolling back, and a guard-free rollback must not serialize behind
// anyone. An abort handler's panic goes on once the rollback is reported.
func (tx *Tx) rollback(kind obs.Kind, reason string) {
	var panicked any
	if tx.mode != modeSnapshot {
		tx.handle.setAborted()
		t := tx.thread
		// Release the attempt's eager lockwords before blocking on the
		// abort-guard footprint.
		tx.releaseEagerLocks()
		panicked = tx.compensate(tx.cur, nil)
		tx.tick(CostAbort)
		t.flushDeferred()
	}
	tx.edgeRollback(kind, reason)
	if panicked != nil {
		panic(panicked)
	}
}
