package core

import (
	"tcc/internal/collections"
	"tcc/internal/stm"
)

// TransactionalSortedMap wraps any collections.SortedMap (typically a
// red-black TreeMap) and extends TransactionalMap with the
// order-dependent operations of paper §3.2 and Tables 4-6: endpoint
// queries, ordered iteration protected by expanding key-range locks, and
// subMap/headMap/tailMap views. Every order-dependent operation is a
// stripe walk (sortedmap_striped.go); Table 5's first/last locks are the
// range locks a walk from the bottom (top) of the key space lays.
type TransactionalSortedMap[K comparable, V any] struct {
	TransactionalMap[K, V]
}

// NewTransactionalSortedMap wraps sm. The wrapper assumes exclusive
// ownership of sm; the comparator is captured at construction and is
// thereafter read-only (Table 6). Because it adopts one existing
// structure it is single-stripe; use
// NewRangeStripedTransactionalSortedMap (which builds its own interval
// shards) when disjoint-range operations on one hot sorted map need to
// scale (see the package documentation's striping note).
func NewTransactionalSortedMap[K comparable, V any](sm collections.SortedMap[K, V]) *TransactionalSortedMap[K, V] {
	return NewRangeStripedTransactionalSortedMap(func() collections.SortedMap[K, V] { return sm }, nil)
}

// Compare applies the map's comparator.
func (t *TransactionalSortedMap[K, V]) Compare(a, b K) int { return t.sorted.cmp(a, b) }

// FirstKey returns the minimum key as seen by tx. The observation is a
// stripe walk from the bottom of the key space to the first live key
// (walk): the range locks it lays are Table 5's first lock — a
// committing put below the minimum or removal of the minimum aborts this
// transaction, a write that only replaces the minimum's value does not.
func (t *TransactionalSortedMap[K, V]) FirstKey(tx *stm.Tx) (K, bool) {
	return t.walk(tx, up, nil, false)
}

// LastKey returns the maximum key as seen by tx, walking stripes
// downward from the top of the key space (see FirstKey).
func (t *TransactionalSortedMap[K, V]) LastKey(tx *stm.Tx) (K, bool) {
	return t.walk(tx, down, nil, false)
}

// SortedIterator enumerates entries in key order within [lo, hi) as
// seen by one transaction, merging committed entries with the
// transaction's buffered writes. Per Table 5, each Next takes the key
// lock of the returned key and widens the iterator's range lock to
// cover everything observed so far. An iterator that starts at the
// map's beginning holds a range open to the bottom of the key space
// (Table 5's first lock); a HasNext answering false extends the range
// to the top (unbounded iterators — the answer reveals what the maximum
// key is, Table 5's last lock) or pins it to the view's upper bound
// (bounded views).
type SortedIterator[K comparable, V any] struct {
	// view is what the iterator enumerates: the map and the bounds. A
	// named field, not embedded, so the view's Get and Put stay out of
	// the iterator's method set.
	view SortedView[K, V]
	tx   *stm.Tx
	l    *mapLocal[K, V]
	// last is the last returned key, meaningful once returned is set.
	last     K
	returned bool
	// pending is the prefetched next entry (HasNext peeks by advancing),
	// meaningful while hasPending is set.
	pending    Entry[K, V]
	hasPending bool
	done       bool
	// si is the stripe the scan is positioned in and lock the widening
	// range lock the iterator owns in that stripe's table (created as
	// the scan enters the stripe; entries of stripes already left stay
	// in the transaction's rangeLocks until release).
	si   int
	lock *rangeLock[K]
}

// Iterator creates an ascending iterator over the whole map.
func (t *TransactionalSortedMap[K, V]) Iterator(tx *stm.Tx) *SortedIterator[K, V] {
	return SortedView[K, V]{t: t}.Iterator(tx)
}

// init starts it — in place, so ForEach can keep it on its stack — at
// the bottom of the view v.
func (it *SortedIterator[K, V]) init(v SortedView[K, V], tx *stm.Tx) {
	//stmlint:ignore tx-escape iterator is per-transaction local state (Table 5) and documented not to outlive tx
	*it = SortedIterator[K, V]{view: v, tx: tx, l: v.t.local(tx)}
	if v.hasLo {
		it.si = v.t.sorted.stripeFor(v.loKey)
	}
	// Creating the iterator is the operation that puts the map into the
	// transaction: the handler pair registers now, ahead of any other
	// collection the body uses before the first Next.
	v.t.touch(tx, &it.l.footprint, it.si)
}

// HasNext reports whether another entry exists in the view.
func (it *SortedIterator[K, V]) HasNext() bool {
	if it.done {
		return false
	}
	if it.hasPending {
		return true
	}
	k, v, ok := it.advance()
	if !ok {
		// advance left range locks covering every scanned interval
		// through the view bound (or to the top of the key space), so
		// the emptiness of the tail is protected.
		it.done = true
		return false
	}
	it.pending, it.hasPending = Entry[K, V]{Key: k, Val: v}, true
	return true
}

// Next returns the next entry in key order; ok is false when exhausted.
func (it *SortedIterator[K, V]) Next() (k K, v V, ok bool) {
	if !it.HasNext() {
		return k, v, false
	}
	it.hasPending = false
	return it.pending.Key, it.pending.Val, true
}

// ForEach enumerates the whole map in key order until fn returns false.
func (t *TransactionalSortedMap[K, V]) ForEach(tx *stm.Tx, fn func(k K, v V) bool) {
	SortedView[K, V]{t: t}.ForEach(tx, fn)
}

// Keys returns all keys in ascending order as seen by tx.
func (t *TransactionalSortedMap[K, V]) Keys(tx *stm.Tx) []K {
	return SortedView[K, V]{t: t}.Keys(tx)
}

// SortedView is a subMap/headMap/tailMap view: the [lo, hi) slice of a
// TransactionalSortedMap, sharing its state and locks (paper §3.2:
// "mutable SortedMap views returned by subMap, headMap, and tailMap").
type SortedView[K comparable, V any] struct {
	t *TransactionalSortedMap[K, V]
	// loKey (inclusive) and hiKey (exclusive) bound the view where hasLo
	// and hasHi say so; a missing bound is the end of the key space. The
	// view holds its bounds by value, so taking one allocates nothing.
	loKey, hiKey K
	hasLo, hasHi bool
}

// SubMap returns the view of keys in [lo, hi).
func (t *TransactionalSortedMap[K, V]) SubMap(lo, hi K) SortedView[K, V] {
	if t.sorted.cmp(lo, hi) > 0 {
		panic("core: SubMap bounds out of order")
	}
	return SortedView[K, V]{t: t, loKey: lo, hiKey: hi, hasLo: true, hasHi: true}
}

// HeadMap returns the view of keys below hi.
func (t *TransactionalSortedMap[K, V]) HeadMap(hi K) SortedView[K, V] {
	return SortedView[K, V]{t: t, hiKey: hi, hasHi: true}
}

// TailMap returns the view of keys at or above lo.
func (t *TransactionalSortedMap[K, V]) TailMap(lo K) SortedView[K, V] {
	return SortedView[K, V]{t: t, loKey: lo, hasLo: true}
}

// inRange panics when k is outside the view, mirroring java.util's
// IllegalArgumentException.
func (v SortedView[K, V]) inRange(k K) {
	cmp := v.t.sorted.cmp
	if v.hasLo && cmp(k, v.loKey) < 0 || v.hasHi && cmp(k, v.hiKey) >= 0 {
		panic("core: key outside sorted view range")
	}
}

// Get returns the value mapped to k, which must lie inside the view.
func (v SortedView[K, V]) Get(tx *stm.Tx, k K) (V, bool) {
	v.inRange(k)
	return v.t.Get(tx, k)
}

// ContainsKey reports whether k (inside the view) is mapped.
func (v SortedView[K, V]) ContainsKey(tx *stm.Tx, k K) bool {
	v.inRange(k)
	return v.t.ContainsKey(tx, k)
}

// Put buffers a mapping; k must lie inside the view.
func (v SortedView[K, V]) Put(tx *stm.Tx, k K, val V) (V, bool) {
	v.inRange(k)
	return v.t.Put(tx, k, val)
}

// Remove buffers a removal; k must lie inside the view.
func (v SortedView[K, V]) Remove(tx *stm.Tx, k K) (V, bool) {
	v.inRange(k)
	return v.t.Remove(tx, k)
}

// Iterator returns an ascending iterator over the view.
func (v SortedView[K, V]) Iterator(tx *stm.Tx) *SortedIterator[K, V] {
	it := new(SortedIterator[K, V])
	it.init(v, tx)
	return it
}

// ForEach enumerates the view in key order until fn returns false.
func (v SortedView[K, V]) ForEach(tx *stm.Tx, fn func(k K, val V) bool) {
	var it SortedIterator[K, V] // never leaves this stack
	it.init(v, tx)
	for {
		k, val, ok := it.Next()
		if !ok || !fn(k, val) {
			return
		}
	}
}

// Keys returns the view's keys in ascending order.
func (v SortedView[K, V]) Keys(tx *stm.Tx) []K {
	var out []K
	v.ForEach(tx, func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
