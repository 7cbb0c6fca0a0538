package collections

import "hash/maphash"

// hashSeed is shared by all HashMaps so hashes are stable within a
// process but vary across processes, like java.util.HashMap's spread.
var hashSeed = maphash.MakeSeed()

// HashMap is a java.util.HashMap-style bucketed hash table: an array of
// singly linked collision chains, a size field, and a load factor that
// triggers doubling rehashes. The size field and collision chains are
// precisely the implementation details that cause the unnecessary
// memory-level conflicts motivating the paper (§2.4) when this kind of
// structure is used directly inside transactions.
type HashMap[K comparable, V any] struct {
	buckets   []*hmNode[K, V]
	size      int
	threshold int
	// free lists nfree removed nodes, zeroed and chained through next,
	// for Put to reuse (see maxFreeNodes).
	free  *hmNode[K, V]
	nfree int
}

type hmNode[K comparable, V any] struct {
	hash uint64
	key  K
	val  V
	next *hmNode[K, V]
}

const (
	hmInitialBuckets = 16
	// hmLoadFactorNum/Den encode java.util.HashMap's default 0.75.
	hmLoadFactorNum = 3
	hmLoadFactorDen = 4
)

// NewHashMap creates an empty HashMap.
func NewHashMap[K comparable, V any]() *HashMap[K, V] {
	m := &HashMap[K, V]{}
	m.initTable(hmInitialBuckets)
	return m
}

func (m *HashMap[K, V]) initTable(n int) {
	m.buckets = make([]*hmNode[K, V], n)
	m.threshold = n * hmLoadFactorNum / hmLoadFactorDen
}

func hashKey[K comparable](k K) uint64 {
	return maphash.Comparable(hashSeed, k)
}

func (m *HashMap[K, V]) bucketFor(h uint64) int {
	return int(h & uint64(len(m.buckets)-1))
}

// Get returns the value mapped to k.
func (m *HashMap[K, V]) Get(k K) (V, bool) {
	h := hashKey(k)
	for n := m.buckets[m.bucketFor(h)]; n != nil; n = n.next {
		if n.hash == h && n.key == k {
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// ContainsKey reports whether k is mapped.
func (m *HashMap[K, V]) ContainsKey(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Put maps k to v, returning the previous value if k was present.
func (m *HashMap[K, V]) Put(k K, v V) (V, bool) {
	h := hashKey(k)
	i := m.bucketFor(h)
	for n := m.buckets[i]; n != nil; n = n.next {
		if n.hash == h && n.key == k {
			old := n.val
			n.val = v
			return old, true
		}
	}
	n := m.free
	if n != nil {
		m.free = n.next
		m.nfree--
	} else {
		n = new(hmNode[K, V])
	}
	*n = hmNode[K, V]{hash: h, key: k, val: v, next: m.buckets[i]}
	m.buckets[i] = n
	m.size++
	if m.size > m.threshold {
		m.rehash()
	}
	var zero V
	return zero, false
}

// Remove deletes k's mapping, returning the removed value if present.
func (m *HashMap[K, V]) Remove(k K) (V, bool) {
	h := hashKey(k)
	i := m.bucketFor(h)
	var prev *hmNode[K, V]
	for n := m.buckets[i]; n != nil; n = n.next {
		if n.hash == h && n.key == k {
			if prev == nil {
				m.buckets[i] = n.next
			} else {
				prev.next = n.next
			}
			m.size--
			old := n.val
			if m.nfree < maxFreeNodes {
				*n = hmNode[K, V]{next: m.free}
				m.free = n
				m.nfree++
			}
			return old, true
		}
		prev = n
	}
	var zero V
	return zero, false
}

func (m *HashMap[K, V]) rehash() {
	old := m.buckets
	m.initTable(len(old) * 2)
	for _, n := range old {
		for n != nil {
			next := n.next
			i := m.bucketFor(n.hash)
			n.next = m.buckets[i]
			m.buckets[i] = n
			n = next
		}
	}
}

// Size returns the number of mappings.
func (m *HashMap[K, V]) Size() int { return m.size }

// ForEach visits every mapping in bucket order until fn returns false.
func (m *HashMap[K, V]) ForEach(fn func(k K, v V) bool) {
	for _, n := range m.buckets {
		for ; n != nil; n = n.next {
			if !fn(n.key, n.val) {
				return
			}
		}
	}
}

// Keys returns a snapshot of the keys in ForEach order.
func (m *HashMap[K, V]) Keys() []K {
	out := make([]K, 0, m.size)
	m.ForEach(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Clear removes all mappings.
func (m *HashMap[K, V]) Clear() {
	m.initTable(hmInitialBuckets)
	m.size = 0
}

var _ Map[int, int] = (*HashMap[int, int])(nil)
