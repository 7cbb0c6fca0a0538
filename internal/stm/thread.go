package stm

import (
	"math/rand"

	"tcc/internal/obs"
)

// Stats counts transactional events on one worker. Harnesses aggregate
// them across workers to report the lost-work breakdowns the paper's
// conflict analysis (TAPE-style, §6.3) relies on.
type Stats struct {
	// Protocol names the concurrency-control protocol the worker ran
	// ("tl2" unless SetProtocol changed it). Aggregating Stats from
	// workers on different protocols yields "mixed".
	Protocol string
	// Commits counts committed top-level transactions.
	Commits uint64
	// Aborts counts top-level rollbacks due to memory-level conflicts.
	Aborts uint64
	// Violations counts top-level rollbacks due to program-directed
	// aborts (semantic conflicts raised by other transactions).
	Violations uint64
	// UserAborts counts rollbacks requested by the program itself.
	UserAborts uint64
	// NestedRetries counts partial rollbacks of closed-nested levels.
	NestedRetries uint64
	// OpenCommits counts Open sections that returned nil.
	OpenCommits uint64
	// OpenRetries is always 0: an Open section runs inside the attempt
	// and has no retry of its own. Kept only for the benchmark report
	// that still reads it.
	OpenRetries uint64
	// HandlerRuns counts executed commit handlers.
	HandlerRuns uint64
	// SnapshotCommits counts top-level transactions that completed on
	// the MVCC-lite snapshot path (AtomicRead): no locks taken, no CAS
	// issued, nothing published.
	SnapshotCommits uint64
	// SnapshotFallbacks counts read-only transactions that had to
	// leave the snapshot path — the body wrote or registered a
	// handler, or retained history stayed too shallow across the
	// restart budget — and completed on the ordinary retry path.
	SnapshotFallbacks uint64
	// ViolationsByReason breaks Violations down by the reason string the
	// violator supplied — the lost-work attribution the paper obtained
	// with TAPE (§6.3: "we were able to identify several global counters
	// ... as the main sources of lost work"). Lazily allocated.
	ViolationsByReason map[string]uint64
}

// countViolation records one program-directed abort under its reason.
func (s *Stats) countViolation(reason string) {
	s.Violations++
	if reason == "" {
		reason = "(unspecified)"
	}
	if s.ViolationsByReason == nil {
		s.ViolationsByReason = make(map[string]uint64)
	}
	s.ViolationsByReason[reason]++
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	switch {
	case s.Protocol == "":
		s.Protocol = other.Protocol
	case other.Protocol != "" && other.Protocol != s.Protocol:
		s.Protocol = "mixed"
	}
	s.Commits += other.Commits
	s.Aborts += other.Aborts
	s.Violations += other.Violations
	s.UserAborts += other.UserAborts
	s.NestedRetries += other.NestedRetries
	s.OpenCommits += other.OpenCommits
	s.HandlerRuns += other.HandlerRuns
	s.SnapshotCommits += other.SnapshotCommits
	s.SnapshotFallbacks += other.SnapshotFallbacks
	for reason, n := range other.ViolationsByReason {
		if s.ViolationsByReason == nil {
			s.ViolationsByReason = make(map[string]uint64)
		}
		s.ViolationsByReason[reason] += n
	}
}

// Thread is one transactional worker: a clock for charging time, a
// deterministic RNG for contention backoff, and event counters. Each
// concurrent worker (goroutine or virtual CPU) needs its own Thread.
//
// The Thread also owns what makes the retry loop allocation-free in
// steady state: its one Tx, its one Handle, the pool of nesting levels
// (with their read/write sets' entry slices and index maps) and the
// sorted write-set scratch used at commit are reused across attempts and
// transactions, as is whatever the collections keep in the attachment
// slot.
type Thread struct {
	// Clock charges this worker's time; on the simulator it is the
	// worker's virtual CPU.
	Clock Clock
	// Stats accumulates this worker's transactional events.
	Stats Stats
	// TraceID is the worker's lane in observability output (the tid of
	// its Chrome-trace lane and its histogram shard). Harnesses set it
	// to the virtual CPU id; it is not interpreted by the STM.
	TraceID int
	// rng is the backoff RNG, built from seed on the first backoff.
	rng  *rand.Rand
	seed int64
	// tx is the Thread's transaction, at rest (see Tx.rest) unless inTx.
	tx   Tx
	inTx bool
	// proto is the worker's concurrency-control protocol (see Protocol);
	// NewThread starts on the TL2 default and SetProtocol switches it.
	proto Protocol
	// deferred accumulates cycles charged by commit/abort handlers via
	// DeferTick; they are flushed to the Clock once the commit guard is
	// released.
	deferred uint64
	// policy is the contention-management policy; nil means the default
	// randomized exponential backoff.
	policy BackoffPolicy
	// levelPool recycles nesting levels; commitBuf is the sorted
	// write-set scratch and guardBuf the scratch a guard footprint is
	// gathered and sorted in.
	levelPool []*level
	commitBuf []varEntry[any]
	guardBuf  []*Guard
	// handle names the running attempt, whichever it is (see Handle).
	handle Handle
	// sig is the one signal the thread unwinds with (see Thread.raise).
	sig signal
	// attachments is the one store of transaction-local state (see
	// Attachment).
	attachments map[any]any
}

// maxAttachments bounds the attachment set a Thread carries from one
// attempt to the next: begin drops a larger one whole — between attempts
// nothing in it is in use, mid-attempt it holds the running transaction's
// buffers — and owners rebuild their state on the next use. A collection
// the program has dropped is thus unpinned once this many others were
// used on the thread.
const maxAttachments = 64

// Attachment returns the value stored under key by SetAttachment, or
// nil. The transactional collections keep their per-(thread, instance)
// local state here (paper Tables 3, 6, 9 "Local Transaction State"),
// stamped with the Handle of the attempt it serves, so steady-state
// transactions re-stamp it instead of allocating it. An attachment stays
// for the rest of the attempt but may disappear between any two
// attempts; its owner must be able to rebuild it.
func (t *Thread) Attachment(key any) any { return t.attachments[key] }

// SetAttachment stores val under key for the life of the Thread, or
// until the set overflows (see maxAttachments).
func (t *Thread) SetAttachment(key, val any) {
	if t.attachments == nil {
		t.attachments = make(map[any]any)
	}
	t.attachments[key] = val
}

// NewThread creates a worker bound to a clock, with a deterministic
// backoff RNG seeded by seed. The worker starts on the default (TL2)
// concurrency-control protocol; see SetProtocol.
func NewThread(clock Clock, seed int64) *Thread {
	t := &Thread{Clock: clock, seed: seed, proto: protocols[0]}
	t.tx.thread = t
	t.Stats.Protocol = t.proto.Name()
	return t
}

// getLevel pops a recycled level or allocates one, pushed on parent.
func (t *Thread) getLevel(parent *level) *level {
	if n := len(t.levelPool) - 1; n >= 0 {
		l := t.levelPool[n]
		t.levelPool[n] = nil
		t.levelPool = t.levelPool[:n]
		l.parent = parent
		return l
	}
	return &level{parent: parent}
}

// putLevel resets a level and returns it to the pool.
func (t *Thread) putLevel(l *level) {
	l.reset()
	t.levelPool = append(t.levelPool, l)
}

// releaseLevels returns every level tx has pushed to the pool.
func (t *Thread) releaseLevels(tx *Tx) {
	for l := tx.cur; l != nil; {
		next := l.parent
		t.putLevel(l)
		l = next
	}
	tx.cur = nil
}

// DeferTick records cycles to charge once the current commit or abort
// completes. Commit and abort handlers run with their collection's
// commit guard held and must not advance the clock directly (on the
// simulator that would yield while holding a host lock); they charge
// their work here instead.
func (t *Thread) DeferTick(cycles uint64) { t.deferred += cycles }

// flushDeferred charges the accumulated handler cycles.
func (t *Thread) flushDeferred() {
	if t.deferred > 0 {
		t.Clock.Tick(t.deferred)
		t.deferred = 0
	}
}

// stall is the go-around of both retry loops, Thread.run's and
// Tx.Nested's: back off before attempt+1 and report the stall.
func (tx *Tx) stall(attempt int) { tx.edgeBackoff(tx.thread.backoff(attempt)) }

// backoff stalls according to the worker's contention-management
// policy (paper §5.1 discusses the need; the default is randomized
// exponential backoff, see BackoffPolicy for alternatives) and
// returns the cycles waited. The RNG is built on the first stall: most
// workers never back off, and a math/rand source is 607 words.
func (t *Thread) backoff(attempt int) uint64 {
	p := t.policy
	if p == nil {
		p = defaultPolicy
	}
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.seed))
	}
	w := p.Backoff(attempt, t.rng)
	t.Clock.Wait(w)
	return w
}

// Atomic runs fn as a top-level transaction, retrying on memory
// conflicts and program-directed aborts until it commits. If fn returns
// an error the transaction rolls back (abort handlers run, buffered
// writes vanish) and Atomic returns that error without retrying.
//
// Atomic must not be called while a transaction is already running on
// this Thread; use tx.Nested (closed nesting) or tx.Open (open nesting)
// instead.
func (t *Thread) Atomic(fn func(tx *Tx) error) error { return t.run(fn, false) }

// AtomicRead runs fn as a read-only transaction on the MVCC-lite
// snapshot path: the global clock is sampled once at begin and every
// Var.Get returns the newest committed box at or below that version —
// no lockword CAS, no read-set bookkeeping, no validation, and no way
// for a writer to abort it, even while writers commit continuously.
//
// If the snapshot cannot complete — fn writes, registers a handler,
// calls Open, or a var's one-deep retained history was
// truncated past the read version on every restart — the transaction
// transparently continues on the ordinary retry path (counted in
// Stats.SnapshotFallbacks; still one transaction to every observer), so
// fn must tolerate re-execution exactly as an Atomic body must.
func (t *Thread) AtomicRead(fn func(tx *Tx) error) error { return t.run(fn, true) }

// maxSnapshotRestarts bounds how many times one snapshot transaction
// restarts with a fresh read version (shallow history, or a committer
// stalled on a lockword) before giving up on the snapshot path.
const maxSnapshotRestarts = 8

// begin starts one attempt: charge the begin cost, reset the thread's
// handle and take a read version, push the root level, drop an attachment
// set that outgrew maxAttachments. A retry-path attempt draws the next
// handle id; a pure snapshot attempt (snap) keeps id 0 — it never enters
// a lock table and never acquires a lockword — and reads at a
// global-clock version whatever space the protocol's own read version
// lives in: the snapshot path is protocol-independent MVCC.
func (tx *Tx) begin(attempt int, snap bool) {
	t := tx.thread
	t.Clock.Tick(CostTxBegin)
	h := &t.handle
	h.state.Store(nil)
	h.txid.Store(0)
	h.birth = t.Clock.Now()
	tx.handle = h
	if snap {
		h.id = 0
		tx.readVersion = globalClock.Load()
		tx.mode = modeSnapshot
	} else {
		h.id = handleIDs.Add(1)
		tx.readVersion = t.proto.begin(t)
		tx.mode = modeTx
	}
	tx.cur = t.getLevel(nil)
	tx.attempt = attempt
	if len(t.attachments) > maxAttachments {
		clear(t.attachments)
	}
	tx.edgeBegin()
}

// run is the one attempt loop behind Atomic and AtomicRead: begin, run
// fn, commit; on a conflict roll back, stall and re-run, until the
// transaction commits or fn asks out — returns an error, calls tx.Abort
// or panics. An attempt that does not commit ends in rollback.
//
// snap selects pure snapshot mode for the attempt (AtomicRead). Such an
// attempt records, locks and publishes nothing, so it has no commit
// protocol to run and nothing to roll back; it serializes at its read
// version by construction. When it cannot finish it either restarts
// with a fresh read version or falls back: snap goes off and the same
// transaction — same Tx, txid and firstBirth — continues as an ordinary
// one.
func (t *Thread) run(fn func(tx *Tx) error, snap bool) error {
	if t.inTx {
		panic("stm: nested Atomic on one Thread; use tx.Nested or tx.Open")
	}
	t.inTx = true
	tx := &t.tx
	defer tx.rest()
	restarts := 0
	for attempt := 0; ; attempt++ {
		tx.begin(attempt, snap)
		err, sig := runTx(fn, tx)
		switch {
		case sig.kind == sigNone && err == nil:
			if ok, panicked := tx.commit(); ok {
				tx.edgeCommit()
				if snap {
					t.Clock.Tick(CostSnapshotCommit)
				}
				if panicked != nil {
					panic(panicked) // a commit handler's: committed all the same
				}
				return nil
			}
			if reason := tx.handle.ViolationReason(); reason != "" {
				tx.rollback(obs.KindTxViolated, reason)
			} else {
				tx.rollback(obs.KindTxAbort, "")
			}
		case sig.kind == sigNone || sig.kind == sigUserAbort || sig.kind == sigPanic:
			// fn returned an error, called tx.Abort or panicked: hand the
			// error, or the panic, to the caller without retrying. Ahead of
			// the snapshot arm, or a panicking AtomicRead body would be
			// re-executed as a fallback.
			reason := "error return"
			if sig.kind != sigNone {
				err, reason = sig.err, sig.reason
			}
			tx.rollback(obs.KindTxUserAbort, reason)
			if p, ok := err.(*foreignPanic); ok {
				panic(p.val)
			}
			return err
		case snap:
			// Pure snapshot attempts are not numbered: each is attempt 0,
			// and so is the first ordinary attempt after them. No conflict
			// occurred — this reader was invisible, so no writer lost work
			// either — hence no abort is counted and no backoff is due.
			attempt = -1
			t.releaseLevels(tx)
			restarts++
			if sig.kind == sigFallback && sig.reason == fallbackShallowHistory && restarts < maxSnapshotRestarts {
				// Writers truncated a var's history past the read version
				// (lapped this reader twice), or a committer sat on a
				// lockword for the whole spin budget: resample the clock.
				continue
			}
			// The body wrote, registered a handler, called Open, was
			// violated through a handle the caller shared — or
			// the restart budget is spent.
			snap = false
			tx.edgeFallback()
			continue
		case sig.kind == sigViolated:
			tx.rollback(obs.KindTxViolated, sig.reason)
		default: // sigRetry
			tx.rollback(obs.KindTxAbort, "")
		}
		t.releaseLevels(tx)
		tx.stall(attempt)
	}
}

// Open runs fn as an open-nested section of the running attempt: the
// paper's open nesting (§2.4, §4), reduced to its two uses — taking
// semantic locks and publishing effects that abort handlers compensate.
// fn publishes under a lock of its own (a collection's guard), not through
// Vars, so what it publishes is visible at once and stays published
// whether or not the transaction commits. A Var Get or Set inside fn
// panics.
//
// fn receives tx itself and runs on the current level: handlers it
// registers attach to that level, guard and all, so a later rollback of
// the level runs the compensation and a commit applies the buffered
// updates. If fn returns an error, the registrations fn made are dropped
// and the error is returned with the transaction still viable. A signal
// or panic out of fn unwinds the enclosing attempt, and fn's abort
// handlers compensate what it had already published.
//
// Open polls for a violation on entry. Inside a snapshot attempt it falls
// back to the retry path instead: a read-only snapshot neither publishes
// nor takes semantic locks.
func (tx *Tx) Open(fn func(o *Tx) error) error {
	if tx.mode == modeSnapshot {
		tx.bail(sigFallback, fallbackOpen)
	}
	tx.check()
	cur, root, prev := tx.cur, tx.rootLevel(), tx.mode
	nc, na, rc, ra := len(cur.onCommit), len(cur.onAbort), len(root.onCommit), len(root.onAbort)
	tx.mode = modeOpen
	defer func() { tx.mode = prev }()
	if err := fn(tx); err != nil {
		root.truncate(rc, ra)
		cur.truncate(nc, na)
		return err
	}
	tx.edgeOpenCommit()
	tx.tick(CostOpenCommit)
	return nil
}
