package core

import (
	"tcc/internal/collections"
	"tcc/internal/stm"
)

// TransactionalSet is a set built as a thin wrapper over
// TransactionalMap, "as has been done similarly for ConcurrentHashSet
// implementations built on top of ConcurrentHashMap" (paper §5.1).
type TransactionalSet[K comparable] struct {
	m *TransactionalMap[K, struct{}]
}

// NewTransactionalSet creates a set backed by a fresh HashMap.
func NewTransactionalSet[K comparable]() *TransactionalSet[K] {
	return &TransactionalSet[K]{m: NewTransactionalMap[K, struct{}](collections.NewHashMap[K, struct{}]())}
}

// Add inserts k, reporting whether it was newly added.
func (s *TransactionalSet[K]) Add(tx *stm.Tx, k K) bool {
	_, had := s.m.Put(tx, k, struct{}{})
	return !had
}

// AddUnread inserts k blindly: no read dependency, no report.
func (s *TransactionalSet[K]) AddUnread(tx *stm.Tx, k K) { s.m.PutUnread(tx, k, struct{}{}) }

// Remove deletes k, reporting whether it was present.
func (s *TransactionalSet[K]) Remove(tx *stm.Tx, k K) bool {
	_, had := s.m.Remove(tx, k)
	return had
}

// Contains reports whether k is in the set.
func (s *TransactionalSet[K]) Contains(tx *stm.Tx, k K) bool { return s.m.ContainsKey(tx, k) }

// Size returns the number of elements (takes the size lock).
func (s *TransactionalSet[K]) Size(tx *stm.Tx) int { return s.m.Size(tx) }

// IsEmpty reports emptiness (takes the empty-transition lock).
func (s *TransactionalSet[K]) IsEmpty(tx *stm.Tx) bool { return s.m.IsEmpty(tx) }

// ForEach enumerates the set until fn returns false.
func (s *TransactionalSet[K]) ForEach(tx *stm.Tx, fn func(k K) bool) {
	s.m.ForEach(tx, func(k K, _ struct{}) bool { return fn(k) })
}

// TransactionalSortedSet is the ordered variant, over
// TransactionalSortedMap.
type TransactionalSortedSet[K comparable] struct {
	m *TransactionalSortedMap[K, struct{}]
}

// NewTransactionalSortedSet creates a sorted set backed by a fresh
// red-black TreeMap ordered by compare.
func NewTransactionalSortedSet[K comparable](compare func(a, b K) int) *TransactionalSortedSet[K] {
	return &TransactionalSortedSet[K]{
		m: NewTransactionalSortedMap[K, struct{}](collections.NewTreeMapFunc[K, struct{}](compare)),
	}
}

// Add inserts k, reporting whether it was newly added.
func (s *TransactionalSortedSet[K]) Add(tx *stm.Tx, k K) bool {
	_, had := s.m.Put(tx, k, struct{}{})
	return !had
}

// Remove deletes k, reporting whether it was present.
func (s *TransactionalSortedSet[K]) Remove(tx *stm.Tx, k K) bool {
	_, had := s.m.Remove(tx, k)
	return had
}

// Contains reports whether k is in the set.
func (s *TransactionalSortedSet[K]) Contains(tx *stm.Tx, k K) bool { return s.m.ContainsKey(tx, k) }

// Size returns the number of elements (takes the size lock).
func (s *TransactionalSortedSet[K]) Size(tx *stm.Tx) int { return s.m.Size(tx) }

// IsEmpty reports emptiness (takes the empty-transition lock).
func (s *TransactionalSortedSet[K]) IsEmpty(tx *stm.Tx) bool { return s.m.IsEmpty(tx) }

// First returns the minimum element (see TransactionalSortedMap.FirstKey).
func (s *TransactionalSortedSet[K]) First(tx *stm.Tx) (K, bool) { return s.m.FirstKey(tx) }

// Last returns the maximum element (see TransactionalSortedMap.LastKey).
func (s *TransactionalSortedSet[K]) Last(tx *stm.Tx) (K, bool) { return s.m.LastKey(tx) }

// ForEach enumerates the set in ascending order until fn returns false.
func (s *TransactionalSortedSet[K]) ForEach(tx *stm.Tx, fn func(k K) bool) {
	s.m.ForEach(tx, func(k K, _ struct{}) bool { return fn(k) })
}
