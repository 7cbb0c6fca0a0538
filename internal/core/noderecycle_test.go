package core

import (
	"math/rand"
	"sync"
	"testing"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

// TestNodeRecyclingUnderConcurrentReaders: the wrapped structures reuse
// the nodes Remove and Dequeue unlink, which is safe only because every
// reader of a wrapped structure holds the partition's guard — the
// snapshot Get included — so no reader can see a node between two lives.
// Writers churn Put/Remove on a 16-stripe map and an 8-range sorted map
// and Put/Poll on a 4-lane queue, always with a value equal to its key,
// while readers run snapshot Gets, SubMap scans, Size and Poll and check
// every value they see. Run under -race it also checks the guard
// discipline itself.
func TestNodeRecyclingUnderConcurrentReaders(t *testing.T) {
	const (
		keys = 256
		ops  = 1500
	)
	type elem struct{ k, v int }
	tm := newStripedIntMap(16)
	var bounds []int
	for s := 1; s < 8; s++ {
		bounds = append(bounds, s*keys/8)
	}
	sm := NewRangeStripedTransactionalSortedMap(newIntTree, bounds)
	q := NewSegmentedTransactionalQueue(func() collections.Queue[elem] {
		return collections.NewLinkedQueue[elem]()
	}, 4)
	check := func(what string, k, v int) {
		if k != v {
			t.Errorf("%s saw key %d with value %d", what, k, v)
		}
	}
	poll := func(tx *stm.Tx) {
		if e, ok := q.Poll(tx); ok {
			check("Poll", e.k, e.v)
		}
	}

	workers := []func(th *stm.Thread, rng *rand.Rand){
		// Two writers: each transaction inserts or removes one key in both
		// maps, and enqueues it or polls.
		func(th *stm.Thread, rng *rand.Rand) {
			k, put := rng.Intn(keys), rng.Intn(2) == 0
			must(t, th.Atomic(func(tx *stm.Tx) error {
				if put {
					tm.Put(tx, k, k)
					sm.Put(tx, k, k)
					q.Put(tx, elem{k, k})
				} else {
					tm.Remove(tx, k)
					sm.Remove(tx, k)
					poll(tx)
				}
				return nil
			}))
		},
		nil, // the second writer, filled in below
		// Snapshot Gets of both maps.
		func(th *stm.Thread, rng *rand.Rand) {
			k := rng.Intn(keys)
			must(t, th.AtomicRead(func(tx *stm.Tx) error {
				if v, ok := tm.Get(tx, k); ok {
					check("snapshot map Get", k, v)
				}
				if v, ok := sm.Get(tx, k); ok {
					check("snapshot sorted Get", k, v)
				}
				return nil
			}))
		},
		// SubMap scans, which may span two ranges, and Size.
		func(th *stm.Thread, rng *rand.Rand) {
			lo := rng.Intn(keys - 32)
			must(t, th.Atomic(func(tx *stm.Tx) error {
				sm.SubMap(lo, lo+32).ForEach(tx, func(k, v int) bool {
					check("SubMap scan", k, v)
					return true
				})
				if n := tm.Size(tx); n < 0 || n > keys {
					t.Errorf("map Size = %d", n)
				}
				return nil
			}))
		},
		// A consumer.
		func(th *stm.Thread, rng *rand.Rand) {
			must(t, th.Atomic(func(tx *stm.Tx) error {
				poll(tx)
				return nil
			}))
		},
	}
	workers[1] = workers[0]

	var wg sync.WaitGroup
	for id, work := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := stm.NewThread(&stm.RealClock{}, int64(id+1))
			th.TraceID = id
			rng := rand.New(rand.NewSource(int64(id + 1)))
			for i := 0; i < ops && !t.Failed(); i++ {
				work(th, rng)
			}
		}()
	}
	wg.Wait()

	th := newTh(99)
	atomically(t, th, func(tx *stm.Tx) {
		tm.ForEach(tx, func(k, v int) bool { check("final map", k, v); return true })
		sm.ForEach(tx, func(k, v int) bool { check("final sorted map", k, v); return true })
	})
}
