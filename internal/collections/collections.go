// Package collections provides from-scratch, single-threaded collection
// implementations with java.util semantics: a bucketed, load-factored
// HashMap (the paper's java.util.HashMap stand-in), a red-black TreeMap
// implementing a SortedMap with navigation queries (the
// java.util.TreeMap stand-in), and a linked Queue.
//
// These are the *underlying* structures that the transactional
// collection classes in internal/core wrap: they are deliberately not
// thread-safe, exactly like the Java classes the paper wraps, because
// the wrapper confines all access to its open-nested critical sections.
//
// # Node recycling
//
// HashMap, TreeMap and LinkedQueue keep the nodes that Remove and Dequeue
// unlink — zeroed, so a kept node pins no key or value — and Put and
// Enqueue take a kept node before allocating one, up to maxFreeNodes per
// structure. A node is thus reused while the structure is in use, which
// is safe because nothing outside a structure ever holds one of its
// nodes: every method finishes with its nodes before it returns, and
// every caller that shares a structure between goroutines reads it under
// the same lock it writes it under. For the transactional wrappers that
// lock is the partition's stripe guard, which the snapshot Get holds too,
// and the iterators snapshot keys, not nodes. SkipListMap, whose towers
// vary in size, does not recycle.
package collections

// maxFreeNodes bounds how many unlinked nodes a HashMap, TreeMap or
// LinkedQueue keeps for reuse. A structure whose size wanders allocates
// when it grows past its lowest point by more than this, so the bound
// sets the rate: 16 is the smallest power of two that keeps every
// benchmark workload at or below 0.02 allocations per transaction (8 left
// 0.03–0.04, 32 halves 16's rate, 64 halves it again), and a structure
// that shrank for good retains little.
const maxFreeNodes = 16

// Map is the abstract data type analyzed in Table 1 of the paper: the
// primitive operations of java.util.Map. Derivative operations
// (isEmpty, putAll, ...) are compositions of these (paper §3.1).
type Map[K comparable, V any] interface {
	// Get returns the value mapped to k.
	Get(k K) (V, bool)
	// Put maps k to v and returns the previous value, if any.
	Put(k K, v V) (V, bool)
	// Remove deletes k's mapping and returns the removed value, if any.
	Remove(k K) (V, bool)
	// ContainsKey reports whether k is mapped.
	ContainsKey(k K) bool
	// Size returns the number of mappings.
	Size() int
	// ForEach visits every mapping until fn returns false. Visit order
	// is implementation-defined.
	ForEach(fn func(k K, v V) bool)
	// Keys returns a snapshot of the keys in ForEach order.
	Keys() []K
	// Clear removes all mappings.
	Clear()
}

// SortedMap extends Map with the ordering-dependent operations of
// java.util.SortedMap analyzed in Table 4: ordered iteration, endpoint
// queries, and range views (expressed here as navigation primitives the
// transactional wrapper builds its views and iterators from).
type SortedMap[K comparable, V any] interface {
	Map[K, V]
	// Compare is the map's comparator.
	Compare(a, b K) int
	// FirstKey and LastKey return the minimum and maximum keys.
	FirstKey() (K, bool)
	LastKey() (K, bool)
	// CeilingKey returns the smallest key >= k.
	CeilingKey(k K) (K, bool)
	// HigherKey returns the smallest key > k.
	HigherKey(k K) (K, bool)
	// FloorKey returns the largest key <= k.
	FloorKey(k K) (K, bool)
	// LowerKey returns the largest key < k.
	LowerKey(k K) (K, bool)
	// AscendRange visits mappings with lo <= key < hi in ascending
	// order until fn returns false; a nil bound is unbounded (Java
	// subMap/headMap/tailMap semantics).
	AscendRange(lo, hi *K, fn func(k K, v V) bool)
}

// Queue is a FIFO queue of elements, the structure wrapped by
// TransactionalQueue through the simpler Channel interface (paper §3.3).
type Queue[T any] interface {
	// Enqueue appends v at the tail.
	Enqueue(v T)
	// Dequeue removes and returns the head element.
	Dequeue() (T, bool)
	// Peek returns the head element without removing it.
	Peek() (T, bool)
	// Size returns the number of queued elements.
	Size() int
}
