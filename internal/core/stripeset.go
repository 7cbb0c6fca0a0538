package core

import (
	"strconv"

	"tcc/internal/obs/metrics"
	"tcc/internal/semlock"
	"tcc/internal/stm"
)

// stripeSet is the partition machinery TransactionalMap (hash stripes,
// or key-interval stripes when sorted) and TransactionalQueue (lanes)
// share: a power-of-two vector of commit guards, one per partition, and
// the bookkeeping that keeps a transaction's guard footprint equal to
// the partitions it used. How an operation picks its partition — key
// hash, key interval, lane by thread — is the embedding collection's
// business; one partition is simply the case where every pick is 0.
type stripeSet struct {
	// guards has power-of-two length in [1, maxStripes]; guard ids ascend
	// in slice order (newStripeSet mints them in order), which is what
	// lets held take several at once without deadlocking against the
	// commit protocol's sorted footprint acquisition. guards[i] is fused
	// with the mutex protecting partition i's slice of the wrapped
	// structure and of the semantic-lock tables (see section).
	guards []*stm.Guard
	// mask is len(guards)-1; 0 means a single partition.
	mask uint64
	// violations[i] counts semantic violations partition i's sweeps
	// landed on other transactions (metrics plane; labels collection +
	// stripe, named by setName).
	violations []*metrics.Counter
}

// footprint is the per-transaction half of a stripeSet, embedded in each
// collection's transaction-local state: which partitions the transaction
// has in its guard footprint for the instance, and the instance's single
// commit/abort handler pair (paper §5: "registered by the first
// open-nested transaction to commit").
//
// A local belongs to one (stm.Thread, instance) pair and is recycled
// (attach): its handler pair is bound once, when it is built, and acts
// for whichever attempt the local serves. Every mutation of a local
// follows touch, and the tail of both handlers returns it to the
// pristine state, so touched == 0 is exactly "pristine"; a local found
// otherwise by another attempt — release discarded it as oversized
// (maxRecycledEntries) — is never reused (DESIGN.md §4.6).
type footprint struct {
	// h stamps the local with the handle of the attempt it serves, owner
	// of every semantic lock it records: set by the first touch, once the
	// handler pair is registered, cleared by the handlers' tail.
	h semlock.Owner
	// touched is the bitmask of partitions the transaction read, wrote,
	// or registered a lock in. The handler pair is registered under the
	// first touched partition's guard; each later one widens the
	// root-level footprint (stm.Tx.AddTopGuard), so the handlers run with
	// every touched partition's guard held and take no lock themselves.
	touched uint64
	// onCommit and onAbort are built with the collection's local state.
	onCommit, onAbort func()
}

// reattach reports whether the local can serve tx: pristine, or tx's own.
func (f *footprint) reattach(tx *stm.Tx) bool {
	return f.touched == 0 || f.h == tx.Handle()
}

// attach is the one recycling rule of every transaction-local and its one
// lookup: the thread's local for the instance key (stm.Thread.Attachment)
// once reattach finds it serving this attempt or readies it to — rebuilt
// when there is none or reattach refuses. The stamp follows the handler
// registration (touch; counterLocal.reattach): an AtomicRead attempt bails
// out of registering, under a handle the thread's next AtomicRead reuses.
func attach[L interface{ reattach(*stm.Tx) bool }](tx *stm.Tx, key any, build func(*stm.Thread) L) L {
	th := tx.Thread()
	l, ok := th.Attachment(key).(L)
	if !ok || !l.reattach(tx) {
		l = build(th)
		th.SetAttachment(key, l)
		l.reattach(tx)
	}
	return l
}

func newStripeSet(n int) stripeSet {
	s := stripeSet{
		guards:     make([]*stm.Guard, n),
		mask:       uint64(n - 1),
		violations: make([]*metrics.Counter, n),
	}
	for i := range s.guards {
		s.guards[i] = stm.NewGuard()
	}
	return s
}

// normalizeStripes maps a requested partition count to the supported
// power-of-two range.
func normalizeStripes(n int) int {
	if n <= 0 {
		n = DefaultStripes
	}
	if n > maxStripes {
		n = maxStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// setName labels the guards — "name" for a single partition, otherwise
// "name.kind[i]" — so guard-wait heatmaps show the partitions working,
// and registers the per-partition violation counters under the same
// index, so scrapes, CPU-profile labels and heatmaps all attribute to
// the same names. Registration locks the registry mutex — fine here
// (setup time), never inside a guard window.
func (s *stripeSet) setName(name, kind string) {
	for i, g := range s.guards {
		label := name
		if len(s.guards) > 1 {
			label = name + "." + kind + "[" + strconv.Itoa(i) + "]"
		}
		g.SetLabel(label)
		s.violations[i] = metrics.Default.Counter(metrics.CollectionViolations,
			"Semantic violations landed by this collection stripe's conflict sweeps",
			metrics.L("collection", name), metrics.L("stripe", strconv.Itoa(i)))
	}
}

// touch adds partition i to the transaction's footprint: the first touch
// of the instance registers the handler pair under guards[i], so the
// footprint starts with the partition actually used; later ones widen
// it. Operations that only buffer (PutUnread, PutLane) call it directly;
// every read of the wrapped structure goes through section, which owns
// when it runs.
func (s *stripeSet) touch(tx *stm.Tx, f *footprint, i int) {
	bit := uint64(1) << uint(i)
	switch {
	case f.touched&bit != 0:
		return
	case f.touched == 0:
		tx.OnTopCommitGuarded(s.guards[i], f.onCommit)
		tx.OnTopAbortGuarded(s.guards[i], f.onAbort)
		f.h = tx.Handle()
	default:
		tx.AddTopGuard(s.guards[i])
	}
	f.touched |= bit
}

// section is the one way a collection enters partitions [lo, hi) on the
// retry path — the paper's §5 rule that the wrapped structure is read only
// inside an open-nested region that also takes the semantic locks
// (DESIGN.md §4, "Open sections"): touch the span, then run fn as the body
// of an open-nested section (open) with the span's guards held (held), and
// charge cost once the section has returned and the guards are free.
//
// The touch runs before, not inside, the section: registration takes no
// lock, and the footprint must be in place before the transaction can
// reach a handler window that walks the partition. The guards are the
// ones the instance's handlers are registered under, so what fn reads of
// the lock tables and the structure is atomic with respect to commits;
// what it publishes — a semantic lock, a dequeued element — is visible at
// once, owned by the top-level transaction and compensated by the
// footprint's abort handler. fn reads no Var (a Var access inside tx.Open
// panics): a short mutex section stands in for the paper's low-level
// open-nested hardware transaction.
//
//stmlint:txbody
//stmlint:window around
func (s *stripeSet) section(tx *stm.Tx, f *footprint, lo, hi int, cost uint64, fn func()) {
	for i := lo; i < hi; i++ {
		s.touch(tx, f, i)
	}
	open(tx, cost, func() { s.held(lo, hi, fn) })
}

// open runs fn as an open-nested section of tx — the package's only
// tx.Open — and charges cost cycles when the section has returned. A Clock must not
// be ticked under a lock other workers share, so whatever fn locks it
// releases before it returns; cost 0 makes no Clock call at all, because
// on the simulator every Tick is a scheduling point.
//
//stmlint:txbody
func open(tx *stm.Tx, cost uint64, fn func()) {
	_ = tx.Open(func(*stm.Tx) error {
		fn()
		return nil
	})
	if cost != 0 {
		tx.Thread().Clock.Tick(cost)
	}
}

// held runs fn with the guards of partitions [lo, hi) held, released by
// defer: fn calls into the wrapped structure, which runs user code that may
// panic (a comparator, == on an interface key). An answer that must not
// see half of a multi-partition commit — an iterator's committed keys, a
// queue's total — passes the whole span. A snapshot-mode Get, which takes
// no semantic lock and so needs no section, calls held alone.
//
//stmlint:window around
func (s *stripeSet) held(lo, hi int, fn func()) {
	s.lockSpan(lo, hi)
	defer s.unlockSpan(lo, hi)
	fn()
}

// lockSpan locks the guards of partitions [lo, hi) in ascending guard-id
// order (slice order), which keeps the hold compatible with the commit
// protocol's sorted footprint acquisition: it cannot deadlock.
//
//stmlint:window open
func (s *stripeSet) lockSpan(lo, hi int) {
	for _, g := range s.guards[lo:hi] {
		g.Lock()
	}
}

// unlockSpan unlocks the guards of partitions [lo, hi).
//
//stmlint:window close
func (s *stripeSet) unlockSpan(lo, hi int) {
	for _, g := range s.guards[lo:hi] {
		g.Unlock()
	}
}

// noteViolations adds n landed violations to partition i's counter: an
// atomic-only add — the one in-window operation the metrics discipline
// allows — and only when metrics.On().
func (s *stripeSet) noteViolations(i, n int) {
	if n > 0 && metrics.On() {
		s.violations[i].Add(uint64(n))
	}
}
