// Package concurrent holds the non-transactional structures the bench
// layer ladder measures beside the transactional ones: a map under one
// lock (Java's Collections.synchronizedMap) and the Michael-Scott
// lock-free queue (ConcurrentLinkedQueue). Each operation is atomic on
// its own; nothing composes several atomically. The figures' Java lines
// do not use this package: they lock a plain collection with
// Platform.NewLock, so the simulator charges the lock's virtual time.
package concurrent

import (
	"sync"

	"tcc/internal/collections"
)

// SyncMap is a Map guarded by one RWMutex.
type SyncMap[K comparable, V any] struct {
	mu sync.RWMutex
	m  collections.Map[K, V]
}

// NewSyncMap wraps m; the wrapper assumes exclusive ownership.
func NewSyncMap[K comparable, V any](m collections.Map[K, V]) *SyncMap[K, V] {
	return &SyncMap[K, V]{m: m}
}

// NewSyncSortedMap wraps the sorted map m the same way: under one lock
// a sorted map is just a map.
func NewSyncSortedMap[K comparable, V any](m collections.SortedMap[K, V]) *SyncMap[K, V] {
	return NewSyncMap[K, V](m)
}

// Get returns the value mapped to k.
func (s *SyncMap[K, V]) Get(k K) (V, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Get(k)
}

// Put maps k to v, returning the previous value if present.
func (s *SyncMap[K, V]) Put(k K, v V) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Put(k, v)
}

// Remove deletes k's mapping, returning the removed value if present.
func (s *SyncMap[K, V]) Remove(k K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Remove(k)
}
