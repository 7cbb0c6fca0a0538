package core

import (
	"tcc/internal/stm"
)

// MapIterator enumerates a TransactionalMap's entries as seen by one
// transaction: committed entries merged with the transaction's buffered
// writes (paper §3.1: "the iterators need to both enumerate the
// underlying map with modifications for new or deleted values from the
// storeBuffer and enumerate the storeBuffer for newly added keys").
//
// Locking follows Table 2: each returned key is key-locked by Next, and
// a HasNext that answers false takes the size lock — a transaction that
// enumerated the whole map has observed its size, so any committing
// insert or remove must abort it.
//
// Buffered writes performed *after* the iterator is created have
// undefined visibility, as with java.util iterators.
type MapIterator[K comparable, V any] struct {
	tm *TransactionalMap[K, V]
	tx *stm.Tx
	l  *mapLocal[K, V]
	// snapshot holds the committed keys at creation; values are re-read
	// fresh under the key lock when returned, and keys removed by other
	// committed transactions since the snapshot are skipped.
	snapshot []K
	i        int
	// extras holds buffered-added keys absent from the snapshot.
	extras []K
	j      int
	// pending is the prefetched next entry (HasNext peeks by advancing),
	// meaningful while hasPending is set.
	pending    Entry[K, V]
	hasPending bool
	done       bool
}

// Iterator creates an iterator over the map's entries as seen by tx.
// Enumeration order is implementation-defined (like HashMap's).
//
// The committed-keys snapshot is taken with every stripe guard held at
// once (one section over all of them): a stripe-at-a-time scan could
// observe half of a multi-stripe commit — its insert on a later stripe but not its insert
// on an earlier one — with no violation to save it, since enumeration
// takes no lock that such a commit sweeps until the keys are visited.
func (tm *TransactionalMap[K, V]) Iterator(tx *stm.Tx) *MapIterator[K, V] {
	l := tm.local(tx)
	//stmlint:ignore tx-escape iterator is per-transaction local state (Table 2) and documented not to outlive tx
	it := &MapIterator[K, V]{tm: tm, tx: tx, l: l}
	tm.section(tx, &l.footprint, 0, len(tm.stripes), DefaultOpCost, func() {
		for _, st := range tm.stripes {
			it.snapshot = append(it.snapshot, st.m.Keys()...)
		}
		inSnapshot := make(map[K]struct{}, len(it.snapshot))
		for _, k := range it.snapshot {
			inSnapshot[k] = struct{}{}
		}
		for k, w := range l.storeBuffer {
			if _, ok := inSnapshot[k]; !ok && !w.removed {
				it.extras = append(it.extras, k)
			}
		}
	})
	return it
}

// advance finds the next live entry, taking its key lock and reading
// its value fresh under the instance lock.
func (it *MapIterator[K, V]) advance() (K, V, bool) {
	tm, l := it.tm, it.l
	for it.i < len(it.snapshot) {
		k := it.snapshot[it.i]
		it.i++
		if w, ok := l.storeBuffer[k]; ok && w.removed {
			continue
		}
		var val V
		var live bool
		si := tm.StripeOf(k)
		tm.section(it.tx, &l.footprint, si, si+1, DefaultOpCost, func() {
			tm.lockKeyLocked(l, k)
			if w, ok := l.storeBuffer[k]; ok {
				val, live = w.val, !w.removed
			} else {
				val, live = tm.stripes[si].m.Get(k)
			}
		})
		if !live {
			// Removed by another committed transaction since the
			// snapshot; the key lock we now hold preserves the
			// observation of its absence.
			continue
		}
		return k, val, true
	}
	for it.j < len(it.extras) {
		k := it.extras[it.j]
		it.j++
		w, ok := l.storeBuffer[k]
		if !ok || w.removed {
			continue
		}
		si := tm.StripeOf(k)
		tm.section(it.tx, &l.footprint, si, si+1, 0, func() { tm.lockKeyLocked(l, k) })
		return k, w.val, true
	}
	var zk K
	var zv V
	return zk, zv, false
}

// HasNext reports whether another entry exists; a false answer reveals
// the map's size, so it takes the size lock.
func (it *MapIterator[K, V]) HasNext() bool {
	if it.done {
		return false
	}
	if it.hasPending {
		return true
	}
	k, v, ok := it.advance()
	if !ok {
		it.done = true
		tm, l := it.tm, it.l
		tm.touchAll(it.tx, l)
		open(it.tx, 0, func() {
			for si, st := range tm.stripes {
				tm.held(si, si+1, func() { st.sizeLockers.Lock(l.h) })
			}
			l.sizeLocked = true
		})
		return false
	}
	it.pending, it.hasPending = Entry[K, V]{Key: k, Val: v}, true
	return true
}

// Next returns the next entry; ok is false when the iteration is
// exhausted.
func (it *MapIterator[K, V]) Next() (k K, v V, ok bool) {
	if !it.HasNext() {
		return k, v, false
	}
	it.hasPending = false
	return it.pending.Key, it.pending.Val, true
}

// ForEach enumerates every entry via an iterator (taking key locks on
// each entry and, on completion, the size lock) until fn returns false.
func (tm *TransactionalMap[K, V]) ForEach(tx *stm.Tx, fn func(k K, v V) bool) {
	it := tm.Iterator(tx)
	for {
		k, v, ok := it.Next()
		if !ok {
			return
		}
		if !fn(k, v) {
			return
		}
	}
}

// Keys returns all keys as seen by tx (a full enumeration).
func (tm *TransactionalMap[K, V]) Keys(tx *stm.Tx) []K {
	var out []K
	tm.ForEach(tx, func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Values returns all values as seen by tx (a full enumeration, like
// java.util.Map.values()).
func (tm *TransactionalMap[K, V]) Values(tx *stm.Tx) []V {
	var out []V
	tm.ForEach(tx, func(_ K, v V) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Entry is one key/value pair returned by Entries.
type Entry[K comparable, V any] struct {
	Key K
	Val V
}

// Entries returns every mapping as seen by tx (entrySet()).
func (tm *TransactionalMap[K, V]) Entries(tx *stm.Tx) []Entry[K, V] {
	var out []Entry[K, V]
	tm.ForEach(tx, func(k K, v V) bool {
		out = append(out, Entry[K, V]{Key: k, Val: v})
		return true
	})
	return out
}

// Clear removes every mapping, as the derivative operation the paper's
// categorization implies: a full enumeration (key locks on every entry
// plus the size lock) followed by buffered removals.
func (tm *TransactionalMap[K, V]) Clear(tx *stm.Tx) {
	for _, k := range tm.Keys(tx) {
		tm.Remove(tx, k)
	}
}

// GetOrDefault returns the mapped value, or def when k is unmapped; the
// key lock is taken either way.
func (tm *TransactionalMap[K, V]) GetOrDefault(tx *stm.Tx, k K, def V) V {
	if v, ok := tm.Get(tx, k); ok {
		return v
	}
	return def
}
