package core

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

func newTh(seed int64) *stm.Thread { return stm.NewThread(&stm.RealClock{}, seed) }

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func atomically(t *testing.T, th *stm.Thread, fn func(tx *stm.Tx)) {
	t.Helper()
	must(t, th.Atomic(func(tx *stm.Tx) error {
		fn(tx)
		return nil
	}))
}

func newIntMap() *TransactionalMap[int, int] {
	return NewTransactionalMap[int, int](collections.NewHashMap[int, int]())
}

func TestMapReadYourOwnWrites(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		if _, ok := tm.Get(tx, 1); ok {
			t.Error("get on empty map succeeded")
		}
		if old, had := tm.Put(tx, 1, 10); had {
			t.Errorf("first put returned previous %d", old)
		}
		if v, ok := tm.Get(tx, 1); !ok || v != 10 {
			t.Errorf("get after put = (%d,%v)", v, ok)
		}
		if old, had := tm.Put(tx, 1, 20); !had || old != 10 {
			t.Errorf("second put = (%d,%v)", old, had)
		}
		if old, had := tm.Remove(tx, 1); !had || old != 20 {
			t.Errorf("remove = (%d,%v)", old, had)
		}
		if _, ok := tm.Get(tx, 1); ok {
			t.Error("get after remove succeeded")
		}
		if _, had := tm.Remove(tx, 1); had {
			t.Error("second remove reported presence")
		}
	})
}

func TestMapCommitPublishes(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 1, 10)
		tm.Put(tx, 2, 20)
		tm.Remove(tx, 2)
	})
	atomically(t, th, func(tx *stm.Tx) {
		if v, ok := tm.Get(tx, 1); !ok || v != 10 {
			t.Errorf("committed get(1) = (%d,%v)", v, ok)
		}
		if _, ok := tm.Get(tx, 2); ok {
			t.Error("removed key visible after commit")
		}
		if n := tm.Size(tx); n != 1 {
			t.Errorf("size = %d, want 1", n)
		}
	})
}

func TestMapAbortDiscardsBuffer(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) { tm.Put(tx, 1, 10) })
	boom := errors.New("boom")
	if err := th.Atomic(func(tx *stm.Tx) error {
		tm.Put(tx, 2, 20)
		tm.Remove(tx, 1)
		return boom
	}); err != boom {
		t.Fatal(err)
	}
	atomically(t, th, func(tx *stm.Tx) {
		if _, ok := tm.Get(tx, 2); ok {
			t.Error("aborted put leaked")
		}
		if _, ok := tm.Get(tx, 1); !ok {
			t.Error("aborted remove leaked")
		}
		if n := tm.Size(tx); n != 1 {
			t.Errorf("size = %d, want 1", n)
		}
	})
	// All semantic locks must have been released by the abort handler.
	if tm.stripes[tm.StripeOf(1)].key2lockers.Locked(1) || tm.stripes[tm.StripeOf(2)].key2lockers.Locked(2) {
		t.Error("abort leaked key locks")
	}
	if tm.stripes[0].sizeLockers.Len() != 0 {
		t.Error("abort leaked size lock")
	}
}

func TestMapIsolationUncommittedInvisible(t *testing.T) {
	tm := newIntMap()
	th1, th2 := newTh(1), newTh(2)
	inBody := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		done <- th1.Atomic(func(tx *stm.Tx) error {
			tm.Put(tx, 1, 100)
			if tx.Attempt() == 0 {
				inBody <- struct{}{}
				<-release
			}
			return nil
		})
	}()
	<-inBody
	// th1 has buffered a put but not committed: th2 must not see it.
	atomically(t, th2, func(tx *stm.Tx) {
		if _, ok := tm.Get(tx, 1); ok {
			t.Error("uncommitted put visible to another transaction (isolation broken)")
		}
	})
	close(release)
	must(t, <-done)
}

func TestMapLocksHeldDuringTxReleasedAfter(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	var h *stm.Handle
	atomically(t, th, func(tx *stm.Tx) {
		h = tx.Handle()
		tm.Get(tx, 7)
		tm.lockSpan(0, len(tm.stripes))
		held := tm.stripes[tm.StripeOf(7)].key2lockers.Holds(7, h)
		tm.unlockSpan(0, len(tm.stripes))
		if !held {
			t.Error("key lock not held during transaction")
		}
	})
	tm.lockSpan(0, len(tm.stripes))
	defer tm.unlockSpan(0, len(tm.stripes))
	if tm.stripes[tm.StripeOf(7)].key2lockers.Locked(7) {
		t.Error("key lock survived commit")
	}
}

func TestMapSizeWithDelta(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for i := 0; i < 5; i++ {
			tm.Put(tx, i, i)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		if n := tm.Size(tx); n != 5 {
			t.Fatalf("size = %d, want 5", n)
		}
		tm.Put(tx, 10, 10)  // new: +1
		tm.Put(tx, 0, 99)   // replace: 0
		tm.Remove(tx, 1)    // present: -1
		tm.Remove(tx, 1000) // absent: 0
		tm.Put(tx, 11, 11)  // new: +1
		tm.Remove(tx, 11)   // removes own buffered add: net 0
		if n := tm.Size(tx); n != 5+1-1 {
			t.Fatalf("size with delta = %d, want 5", n)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		if n := tm.Size(tx); n != 5 {
			t.Fatalf("committed size = %d, want 5", n)
		}
	})
}

func TestMapBlindWritesResolveAtSize(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) { tm.Put(tx, 1, 1) })
	atomically(t, th, func(tx *stm.Tx) {
		tm.PutUnread(tx, 1, 100) // overwrite existing: size unchanged
		tm.PutUnread(tx, 2, 200) // new key: +1
		tm.RemoveUnread(tx, 3)   // absent: 0
		if n := tm.Size(tx); n != 2 {
			t.Fatalf("size = %d, want 2", n)
		}
		// Blind write followed by own get sees the buffered value.
		if v, ok := tm.Get(tx, 2); !ok || v != 200 {
			t.Fatalf("get own blind put = (%d,%v)", v, ok)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		if v, _ := tm.Get(tx, 1); v != 100 {
			t.Fatalf("blind overwrite lost: %d", v)
		}
		if n := tm.Size(tx); n != 2 {
			t.Fatalf("committed size = %d, want 2", n)
		}
	})
}

func TestMapIsEmptyUsesEmptyLock(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		if !tm.IsEmpty(tx) {
			t.Error("fresh map not empty")
		}
		tm.Put(tx, 1, 1)
		if tm.IsEmpty(tx) {
			t.Error("map with buffered put reported empty")
		}
	})
	// The empty lock, not the size lock, must have been taken.
	if tm.stripes[0].sizeLockers.Len() != 0 {
		t.Error("IsEmpty took the size lock")
	}
}

func TestMapIteratorMergesBufferAndCommitted(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 1, 10)
		tm.Put(tx, 2, 20)
		tm.Put(tx, 3, 30)
	})
	atomically(t, th, func(tx *stm.Tx) {
		tm.Remove(tx, 2)  // buffered removal hides committed key
		tm.Put(tx, 3, 33) // buffered overwrite
		tm.Put(tx, 4, 40) // buffered addition
		got := map[int]int{}
		tm.ForEach(tx, func(k, v int) bool {
			got[k] = v
			return true
		})
		want := map[int]int{1: 10, 3: 33, 4: 40}
		if len(got) != len(want) {
			t.Fatalf("iterated %v, want %v", got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("iterated %v, want %v", got, want)
			}
		}
		// Full enumeration reveals the size: the size lock must be held.
		tm.lockSpan(0, len(tm.stripes))
		n := tm.stripes[0].sizeLockers.Len()
		tm.unlockSpan(0, len(tm.stripes))
		if n != 1 {
			t.Fatal("full enumeration did not take the size lock")
		}
	})
}

func TestMapIteratorEarlyStopTakesNoSizeLock(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for i := 0; i < 10; i++ {
			tm.Put(tx, i, i)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		count := 0
		tm.ForEach(tx, func(int, int) bool {
			count++
			return count < 3
		})
		tm.lockSpan(0, len(tm.stripes))
		n := tm.stripes[0].sizeLockers.Len()
		tm.unlockSpan(0, len(tm.stripes))
		if n != 0 {
			t.Error("partial enumeration took the size lock")
		}
	})
}

func TestMapKeysSorted(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for i := 0; i < 20; i++ {
			tm.Put(tx, i, i)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		ks := tm.Keys(tx)
		sort.Ints(ks)
		if len(ks) != 20 || ks[0] != 0 || ks[19] != 19 {
			t.Fatalf("keys = %v", ks)
		}
	})
}

// TestMapConcurrentDisjointPutsCommute is the paper's headline claim
// (§2.4): inserts of different keys must not conflict even though every
// insert changes the internal size field. We verify semantically: all
// inserts land, none are lost, and (statistically) the violation count
// stays zero because no semantic locks collide.
func TestMapConcurrentDisjointPutsCommute(t *testing.T) {
	tm := newIntMap()
	const workers, per = 8, 100
	var wg sync.WaitGroup
	var mu sync.Mutex
	var violations uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := newTh(int64(w))
			for i := 0; i < per; i++ {
				k := w*per + i
				must(t, th.Atomic(func(tx *stm.Tx) error {
					tm.Put(tx, k, k)
					return nil
				}))
			}
			mu.Lock()
			violations += th.Stats.Violations
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if violations != 0 {
		t.Errorf("disjoint-key puts caused %d semantic violations", violations)
	}
	th := newTh(99)
	atomically(t, th, func(tx *stm.Tx) {
		if n := tm.Size(tx); n != workers*per {
			t.Fatalf("size = %d, want %d (lost updates)", n, workers*per)
		}
	})
}

// TestMapConcurrentSameKeyIncrements serializes read-modify-write
// transactions on a single key through semantic key conflicts: the
// final count must equal the number of increments.
func TestMapConcurrentSameKeyIncrements(t *testing.T) {
	tm := newIntMap()
	th0 := newTh(0)
	atomically(t, th0, func(tx *stm.Tx) { tm.Put(tx, 0, 0) })
	const workers, per = 6, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := newTh(int64(w + 1))
			for i := 0; i < per; i++ {
				must(t, th.Atomic(func(tx *stm.Tx) error {
					v, _ := tm.Get(tx, 0)
					tm.Put(tx, 0, v+1)
					return nil
				}))
			}
		}(w)
	}
	wg.Wait()
	atomically(t, th0, func(tx *stm.Tx) {
		if v, _ := tm.Get(tx, 0); v != workers*per {
			t.Fatalf("counter = %d, want %d (lost increments => not serializable)", v, workers*per)
		}
	})
}

// TestMapMoneyConservation runs transfer transactions between keys
// while a checker repeatedly sums the map through a full enumeration;
// serializability requires every observed sum to equal the invariant
// total.
func TestMapMoneyConservation(t *testing.T) {
	tm := newIntMap()
	const accounts = 6
	const total = accounts * 100
	th0 := newTh(0)
	atomically(t, th0, func(tx *stm.Tx) {
		for i := 0; i < accounts; i++ {
			tm.Put(tx, i, 100)
		}
	})
	var transfers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		transfers.Add(1)
		go func(w int) {
			defer transfers.Done()
			th := newTh(int64(w + 1))
			for i := 0; i < 150; i++ {
				from := (w + i) % accounts
				to := (w + i*3 + 1) % accounts
				if from == to {
					continue
				}
				must(t, th.Atomic(func(tx *stm.Tx) error {
					a, _ := tm.Get(tx, from)
					b, _ := tm.Get(tx, to)
					tm.Put(tx, from, a-7)
					tm.Put(tx, to, b+7)
					return nil
				}))
			}
		}(w)
	}
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		th := newTh(50)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sum := 0
			must(t, th.Atomic(func(tx *stm.Tx) error {
				sum = 0
				tm.ForEach(tx, func(_, v int) bool {
					sum += v
					return true
				})
				return nil
			}))
			if sum != total {
				t.Errorf("checker observed sum %d, want %d (not serializable)", sum, total)
				return
			}
		}
	}()
	transfers.Wait()
	close(stop)
	checker.Wait()
}

// TestMapComposedOperationsAtomic is the TestCompound property: two
// operations on the map compose into one atomic action. Each
// transaction moves a token from one key to another; concurrently no
// reader may ever observe both keys holding the token or neither.
func TestMapComposedOperationsAtomic(t *testing.T) {
	tm := newIntMap()
	th0 := newTh(0)
	atomically(t, th0, func(tx *stm.Tx) {
		tm.Put(tx, 0, 1) // token at key 0
		tm.Put(tx, 1, 0)
	})
	var movers sync.WaitGroup
	stop := make(chan struct{})
	movers.Add(1)
	go func() {
		defer movers.Done()
		th := newTh(1)
		for i := 0; i < 200; i++ {
			must(t, th.Atomic(func(tx *stm.Tx) error {
				a, _ := tm.Get(tx, 0)
				b, _ := tm.Get(tx, 1)
				tm.Put(tx, 0, b)
				tm.Put(tx, 1, a)
				return nil
			}))
		}
	}()
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		th := newTh(2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var a, b int
			must(t, th.Atomic(func(tx *stm.Tx) error {
				a, _ = tm.Get(tx, 0)
				b, _ = tm.Get(tx, 1)
				return nil
			}))
			if a+b != 1 {
				t.Errorf("torn compound update: a=%d b=%d", a, b)
				return
			}
		}
	}()
	movers.Wait()
	close(stop)
	checker.Wait()
}

func TestMapPutAll(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.PutAll(tx, map[int]int{1: 1, 2: 2, 3: 3})
	})
	atomically(t, th, func(tx *stm.Tx) {
		if n := tm.Size(tx); n != 3 {
			t.Fatalf("size = %d", n)
		}
	})
}

func TestSetWrapper(t *testing.T) {
	s := NewTransactionalSet[string]()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		if !s.Add(tx, "a") {
			t.Error("first add reported duplicate")
		}
		if s.Add(tx, "a") {
			t.Error("second add reported new")
		}
		s.AddUnread(tx, "b")
		if !s.Contains(tx, "a") || !s.Contains(tx, "b") {
			t.Error("membership wrong")
		}
		if s.Size(tx) != 2 {
			t.Errorf("size = %d", s.Size(tx))
		}
		if !s.Remove(tx, "a") {
			t.Error("remove of member failed")
		}
		if s.IsEmpty(tx) {
			t.Error("set with one member reported empty")
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		var got []string
		s.ForEach(tx, func(k string) bool {
			got = append(got, k)
			return true
		})
		if len(got) != 1 || got[0] != "b" {
			t.Fatalf("committed set = %v", got)
		}
	})
}
