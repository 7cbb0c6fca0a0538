package core

// NavigableMap queries for TransactionalSortedMap: CeilingKey,
// HigherKey, FloorKey and LowerKey (the java.util.NavigableMap
// extension that paper §2.2 notes ConcurrentSkipListMap implements).
//
// These are not in the paper's Table 5, so we derive their locks by the
// paper's own methodology (§3.1's categorization): a navigation query
// observes more than its result key — it observes the *absence of any
// key in the gap* between the probe and the result. CeilingKey(k) = r
// therefore takes a key lock on r plus a range lock over [k, r] (the
// committing insert of any key in between, or the removal of r, must
// abort the reader); a query with no result locks the unbounded tail
// (or head) it proved empty. The strict variants exclude the probe
// endpoint, so a write exactly at the probe commutes. The queries are
// stripe walks (walk in sortedmap_striped.go), which lay the
// gap lock as a chain of per-stripe entries.

import "tcc/internal/stm"

// CeilingKey returns the smallest key >= k as seen by tx, locking the
// result key and the gap [k, result] it observed.
func (t *TransactionalSortedMap[K, V]) CeilingKey(tx *stm.Tx, k K) (K, bool) {
	return t.walk(tx, up, &k, false)
}

// HigherKey returns the smallest key > k as seen by tx; a concurrent
// write exactly at k does not conflict.
func (t *TransactionalSortedMap[K, V]) HigherKey(tx *stm.Tx, k K) (K, bool) {
	return t.walk(tx, up, &k, true)
}

// FloorKey returns the largest key <= k as seen by tx, locking the
// result key and the gap [result, k].
func (t *TransactionalSortedMap[K, V]) FloorKey(tx *stm.Tx, k K) (K, bool) {
	return t.walk(tx, down, &k, false)
}

// LowerKey returns the largest key < k as seen by tx.
func (t *TransactionalSortedMap[K, V]) LowerKey(tx *stm.Tx, k K) (K, bool) {
	return t.walk(tx, down, &k, true)
}
