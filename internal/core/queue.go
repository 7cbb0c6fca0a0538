package core

import (
	"tcc/internal/collections"
	"tcc/internal/semlock"
	"tcc/internal/stm"
)

// TransactionalQueue wraps a Queue behind the util.concurrent Channel
// interface (Put/Offer/Take/Poll/Peek), trading strict FIFO isolation
// for concurrency as in paper §3.3: transactions that confine
// themselves to Put and Take never semantically conflict (Table 7).
//
// Reduced isolation, by design: Take and Poll remove elements from the
// underlying queue immediately (other transactions will not see — and
// cannot steal — them), with an abort handler returning them on
// rollback; Put buffers additions that a commit handler publishes. The
// only semantic lock is the empty lock (Table 8): a transaction that
// observed emptiness via a null Peek/Poll is aborted by a commit that
// makes the queue non-empty.
//
// # Lanes
//
// The queue is a stripeSet of L lanes (L = 1 unless built by
// NewSegmentedTransactionalQueue), each fusing its own guard, committed
// sub-queue and empty-lock set — the segmented cousin of
// internal/concurrent's MSQueue, which gets its parallelism from
// separate head/tail CAS points; here the separation is whole lanes,
// so commit handler windows parallelize too. FIFO is semantic at lane granularity: elements of one lane
// leave in the order their transactions committed, but the queue makes
// no ordering promise between lanes — the same relaxation the paper's
// §3.3 makes for Put/Take commutativity, one level wider. Producers
// put into their thread-affine lane (LaneOf keys on Thread.TraceID),
// consumers drain their own lane first and steal from the others only
// when it is empty, so disjoint-lane traffic commits fully in
// parallel. Observing *global* emptiness (null Poll/Peek) takes every
// lane's empty lock, in one section over every lane (stripeSet.section);
// with one lane the lane probe itself is that observation.
type TransactionalQueue[T any] struct {
	// stripeSet holds the lanes' guards and footprint machinery; mask ==
	// 0 means single-lane.
	stripeSet
	// lanes[i] is the lane guarded by guards[i].
	lanes []*queueLane[T]
	// name labels this instance in violation reasons, built once per name.
	name                         string
	reasonRefill, reasonNotEmpty *stm.Reason
}

// queueLane is one lane: a committed sub-queue and its empty-lock set,
// both protected by the lane's entry of the stripeSet's guard vector.
type queueLane[T any] struct {
	// q holds the lane's committed state (Table 9: "the underlying
	// Queue instance").
	q collections.Queue[T]
	// emptyLockers is the shared transaction state of Table 9.
	emptyLockers *semlock.OwnerSet
}

// queueLocal is the local transaction state of Table 9, per lane. It is
// recycled under footprint's rule; finishLocked — the body of both
// handlers — returns it to pristine.
type queueLocal[T any] struct {
	footprint
	lanes []laneBuffers[T]
	// emptyLocked is the bitmask of lanes whose empty lock this
	// transaction holds.
	emptyLocked uint64
}

// laneBuffers is one lane's share of a queueLocal. The buffers keep
// their backing arrays from one transaction to the next, so the first
// taken elements of addBuffer — the transaction's own puts it polled
// back (frontLocked) — are skipped by index, not sliced away.
type laneBuffers[T any] struct {
	addBuffer, removeBuffer []T
	taken                   int
}

// NewTransactionalQueue wraps q; the wrapper assumes exclusive
// ownership. Because it adopts one existing structure it is
// single-lane; use NewSegmentedTransactionalQueue (which builds its
// own lanes) when endpoint traffic on one hot queue needs to scale.
func NewTransactionalQueue[T any](q collections.Queue[T]) *TransactionalQueue[T] {
	return NewSegmentedTransactionalQueue(func() collections.Queue[T] { return q }, 1)
}

// NewSegmentedTransactionalQueue creates a queue split into the given
// number of lanes (rounded up to a power of two, clamped to [1, 64];
// lanes <= 0 selects DefaultStripes). newLane is called once per lane
// to build that lane's committed sub-queue.
func NewSegmentedTransactionalQueue[T any](newLane func() collections.Queue[T], lanes int) *TransactionalQueue[T] {
	n := normalizeStripes(lanes)
	tq := &TransactionalQueue[T]{
		stripeSet: newStripeSet(n),
		lanes:     make([]*queueLane[T], n),
	}
	for i := range tq.lanes {
		tq.lanes[i] = &queueLane[T]{q: newLane(), emptyLockers: semlock.NewOwnerSet()}
	}
	tq.SetName("queue")
	return tq
}

// SetName labels this instance in violation reasons for lost-work
// profiles. Segmented instances label each lane's guard "name.lane[i]"
// (the queue cousin of the map's "name.stripe[i]" convention).
func (tq *TransactionalQueue[T]) SetName(name string) {
	tq.name = name
	tq.setName(name, "lane")
	tq.reasonNotEmpty = stm.NewReason(name + ": no longer empty")
	tq.reasonRefill = stm.NewReason(name + ": refilled on abort")
}

// Name returns the label set by SetName.
func (tq *TransactionalQueue[T]) Name() string { return tq.name }

// Guard returns lane 0's commit guard — the instance guard of a
// single-lane queue. Code composing its own guarded handlers with a
// segmented queue should use LaneGuard for the lane it works with.
func (tq *TransactionalQueue[T]) Guard() *stm.Guard { return tq.guards[0] }

// Lanes returns the number of lanes (1 unless built by
// NewSegmentedTransactionalQueue).
func (tq *TransactionalQueue[T]) Lanes() int { return len(tq.lanes) }

// LaneGuard returns the commit guard of lane li.
func (tq *TransactionalQueue[T]) LaneGuard(li int) *stm.Guard {
	return tq.guards[li&int(tq.mask)]
}

// LaneOf returns the calling thread's affine lane: the lane Put
// targets and Poll/Take drain first. Keyed on Thread.TraceID (the
// harness sets it to the worker's CPU id), so each worker sticks to
// one lane and disjoint workers need never share an endpoint.
func (tq *TransactionalQueue[T]) LaneOf(tx *stm.Tx) int {
	return int(uint64(tx.Thread().TraceID) & tq.mask)
}

// local returns tx's local state for this instance (see attach).
func (tq *TransactionalQueue[T]) local(tx *stm.Tx) *queueLocal[T] { return attach(tx, tq, tq.newLocal) }

// newLocal builds th's queueLocal for this instance, with the handler
// pair the first touch of every attempt registers.
func (tq *TransactionalQueue[T]) newLocal(th *stm.Thread) *queueLocal[T] {
	l := &queueLocal[T]{lanes: make([]laneBuffers[T], len(tq.lanes))}
	l.onCommit = func() { tq.finishLocked(l, th, true) }
	l.onAbort = func() { tq.finishLocked(l, th, false) }
	return l
}

// finishLocked is the body of both handlers: enqueue into every touched
// lane — the commit handler publishes the transaction's additions, the
// abort handler returns everything it dequeued (compensation) — violate
// the empty-lock holders of lanes that thereby stopped being empty
// (Table 8: put's write conflict fires "if now non-empty"), release this
// transaction's locks and return its local to pristine. The protocol
// holds every touched lane's guard.
func (tq *TransactionalQueue[T]) finishLocked(l *queueLocal[T], th *stm.Thread, commit bool) {
	reason := tq.reasonRefill
	if commit {
		reason = tq.reasonNotEmpty
	}
	total := 0
	for li, ln := range tq.lanes {
		bit := uint64(1) << uint(li)
		if l.touched&bit == 0 {
			continue
		}
		b := &l.lanes[li]
		buf := b.removeBuffer
		if commit {
			buf = b.addBuffer[b.taken:]
		}
		wasEmpty := ln.q.Size() == 0
		for _, v := range buf {
			ln.q.Enqueue(v)
		}
		if wasEmpty && len(buf) > 0 {
			tq.noteViolations(li, ln.emptyLockers.ViolateOthers(l.h, reason))
		}
		if l.emptyLocked&bit != 0 {
			ln.emptyLockers.Unlock(l.h)
		}
		total += len(buf)
		if max(len(b.addBuffer), len(b.removeBuffer)) > maxRecycledEntries {
			// One huge transaction must not pin its arrays on the thread.
			*b = laneBuffers[T]{}
			continue
		}
		// Nor may a kept array pin what the transaction held.
		clear(b.addBuffer)
		clear(b.removeBuffer)
		*b = laneBuffers[T]{addBuffer: b.addBuffer[:0], removeBuffer: b.removeBuffer[:0]}
	}
	th.DeferTick(DefaultOpCost * uint64(1+total))
	l.h, l.emptyLocked, l.touched = nil, 0, 0
}

// Put enqueues v — into the calling thread's affine lane — when the
// transaction commits. Put never semantically conflicts with other Put
// or Take operations (Table 7).
func (tq *TransactionalQueue[T]) Put(tx *stm.Tx, v T) {
	tq.PutLane(tx, tq.LaneOf(tx), v)
}

// PutLane enqueues v into a specific lane at commit, for callers that
// partition work across lanes themselves.
func (tq *TransactionalQueue[T]) PutLane(tx *stm.Tx, li int, v T) {
	li &= int(tq.mask)
	l := tq.local(tx)
	tq.touch(tx, &l.footprint, li)
	l.lanes[li].addBuffer = append(l.lanes[li].addBuffer, v)
	tx.Thread().Clock.Tick(DefaultOpCost / 4)
}

// Offer is Put for an unbounded queue; it always reports acceptance
// (the Channel interface's non-blocking insert).
func (tq *TransactionalQueue[T]) Offer(tx *stm.Tx, v T) bool {
	tq.Put(tx, v)
	return true
}

// frontLocked returns — and, when remove is set, takes — the element of
// lane li at the front as seen by this transaction: preferentially from
// the lane's committed sub-queue (a removal is recorded for
// compensation on abort), else from the transaction's own uncommitted
// additions to the lane. Caller holds lane li's guard.
func (tq *TransactionalQueue[T]) frontLocked(l *queueLocal[T], li int, remove bool) (T, bool) {
	q, b := tq.lanes[li].q, &l.lanes[li]
	if !remove {
		if v, ok := q.Peek(); ok {
			return v, true
		}
	} else if v, ok := q.Dequeue(); ok {
		b.removeBuffer = append(b.removeBuffer, v)
		return v, true
	}
	if b.taken < len(b.addBuffer) {
		v := b.addBuffer[b.taken]
		if remove {
			b.taken++
		}
		return v, true
	}
	var zero T
	return zero, false
}

// frontSpan is one section over lanes [lo, hi), all their guards held at
// once: the front element of the first lane that has one or, when none
// does and lockIfEmpty is set, the empty lock of every lane of the span
// taken under that same hold.
func (tq *TransactionalQueue[T]) frontSpan(tx *stm.Tx, l *queueLocal[T], lo, hi int, remove, lockIfEmpty bool) (T, bool) {
	var out T
	var ok bool
	tq.section(tx, &l.footprint, lo, hi, DefaultOpCost, func() {
		for li := lo; li < hi && !ok; li++ {
			out, ok = tq.frontLocked(l, li, remove)
		}
		if !ok && lockIfEmpty {
			for li := lo; li < hi; li++ {
				if bit := uint64(1) << uint(li); l.emptyLocked&bit == 0 {
					tq.lanes[li].emptyLockers.Lock(l.h)
					l.emptyLocked |= bit
				}
			}
		}
	})
	return out, ok
}

// front finds — and, when remove is set, takes — one element visible to
// tx. Single-lane: one probe that locks emptiness in the same critical
// section it observes it in. Segmented: probe lanes one guard at a time
// starting from the thread's affine lane (no empty locks — which lane
// supplied the element is not semantically observable under lane-FIFO
// ordering), and only if every lane came up empty and the caller needs
// emptiness locked re-check all lanes under one all-guard hold, so "the
// queue was empty" is one atomic observation that any lane's refill
// violates. The lane-at-a-time probe cannot serve for that: emptiness
// seen lane by lane can be stale by the time the last lane is checked.
func (tq *TransactionalQueue[T]) front(tx *stm.Tx, l *queueLocal[T], remove, lockIfEmpty bool) (T, bool) {
	if tq.mask == 0 {
		return tq.frontSpan(tx, l, 0, 1, remove, lockIfEmpty)
	}
	start := tq.LaneOf(tx)
	for i := range tq.lanes {
		li := (start + i) & int(tq.mask)
		if v, ok := tq.frontSpan(tx, l, li, li+1, remove, false); ok {
			return v, true
		}
	}
	if lockIfEmpty {
		return tq.frontSpan(tx, l, 0, len(tq.lanes), remove, true)
	}
	var zero T
	return zero, false
}

// Poll removes and returns an element, or reports false on an empty
// queue — in which case it takes the empty lock (every lane's, for a
// segmented queue), so a commit that makes the queue non-empty aborts
// this transaction (Table 8: "poll: read lock if empty").
func (tq *TransactionalQueue[T]) Poll(tx *stm.Tx) (T, bool) {
	return tq.front(tx, tq.local(tx), true, true)
}

// Take removes and returns an element, spinning (with contention
// backoff and violation polling) while the queue is empty. The caller
// is responsible for termination: a Take with no concurrent producers
// spins forever, so work-queue algorithms with a termination condition
// should use Poll.
func (tq *TransactionalQueue[T]) Take(tx *stm.Tx) T {
	l := tq.local(tx)
	for spin := 0; ; spin++ {
		if v, ok := tq.front(tx, l, true, false); ok {
			return v
		}
		tx.Poll()
		backoff := uint64(16)
		if spin > 4 {
			backoff = 256
		}
		tx.Thread().Clock.Wait(backoff)
	}
}

// Peek returns the element Take would return, without removing it, or
// reports false and takes the empty lock (Table 8: "peek: read lock if
// empty"). Note the reduced isolation: the peeked element may be taken
// by another transaction before this one commits.
func (tq *TransactionalQueue[T]) Peek(tx *stm.Tx) (T, bool) {
	return tq.front(tx, tq.local(tx), false, true)
}

// CommittedSize returns the size of the committed queue, for inspection
// after transactions have quiesced.
func (tq *TransactionalQueue[T]) CommittedSize() int {
	n := 0
	tq.held(0, len(tq.lanes), func() {
		for _, ln := range tq.lanes {
			n += ln.q.Size()
		}
	})
	return n
}
