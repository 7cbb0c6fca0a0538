package core

import (
	"sync"
	"testing"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

func newIntTree() collections.SortedMap[int, int] { return collections.NewTreeMap[int, int]() }

// sortedLayouts are the stripe layouts the order-dependent tests run
// on: the adopting constructor, the range-striped constructor with no
// boundaries, and boundaries that put the keys the tests seed (10, 20,
// 30, 40) into four different stripes. One engine serves all three, so
// every assertion about answers and conflicts must hold on each.
var sortedLayouts = []struct {
	name string
	new  func() *TransactionalSortedMap[int, int]
}{
	{"adopted", func() *TransactionalSortedMap[int, int] {
		return NewTransactionalSortedMap[int, int](newIntTree())
	}},
	{"range1", func() *TransactionalSortedMap[int, int] {
		return NewRangeStripedTransactionalSortedMap[int, int](newIntTree, nil)
	}},
	{"range4", func() *TransactionalSortedMap[int, int] {
		return NewRangeStripedTransactionalSortedMap[int, int](newIntTree, []int{15, 25, 35})
	}},
}

func newSorted() *TransactionalSortedMap[int, int] { return sortedLayouts[0].new() }

// forEachSortedLayout runs fn as one subtest per layout, each on a fresh
// empty map.
func forEachSortedLayout(t *testing.T, fn func(t *testing.T, tm *TransactionalSortedMap[int, int])) {
	t.Helper()
	for _, ly := range sortedLayouts {
		t.Run(ly.name, func(t *testing.T) { fn(t, ly.new()) })
	}
}

func TestSortedMapBasics(t *testing.T) {
	tm := newSorted()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		if _, ok := tm.FirstKey(tx); ok {
			t.Error("FirstKey on empty map succeeded")
		}
		for _, k := range []int{30, 10, 20} {
			tm.Put(tx, k, k*10)
		}
		if k, ok := tm.FirstKey(tx); !ok || k != 10 {
			t.Errorf("first = (%d,%v)", k, ok)
		}
		if k, ok := tm.LastKey(tx); !ok || k != 30 {
			t.Errorf("last = (%d,%v)", k, ok)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		ks := tm.Keys(tx)
		if len(ks) != 3 || ks[0] != 10 || ks[1] != 20 || ks[2] != 30 {
			t.Fatalf("keys = %v", ks)
		}
	})
}

func TestSortedMapMergedEndpoints(t *testing.T) {
	forEachSortedLayout(t, testSortedMapMergedEndpoints)
}

func testSortedMapMergedEndpoints(t *testing.T, tm *TransactionalSortedMap[int, int]) {
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 10, 1)
		tm.Put(tx, 20, 2)
	})
	atomically(t, th, func(tx *stm.Tx) {
		// Buffered additions and removals shift the endpoints this
		// transaction sees.
		tm.Put(tx, 5, 0) // buffered new minimum
		if k, _ := tm.FirstKey(tx); k != 5 {
			t.Errorf("first with buffered add = %d, want 5", k)
		}
		tm.Remove(tx, 20) // buffered removal of the maximum
		if k, _ := tm.LastKey(tx); k != 10 {
			t.Errorf("last with buffered remove = %d, want 10", k)
		}
	})
	// Aborted, so committed endpoints unchanged... (that tx committed;
	// verify the commit applied the buffer).
	atomically(t, th, func(tx *stm.Tx) {
		if k, _ := tm.FirstKey(tx); k != 5 {
			t.Errorf("committed first = %d", k)
		}
		if k, _ := tm.LastKey(tx); k != 10 {
			t.Errorf("committed last = %d", k)
		}
	})
}

func TestSortedIterationOrderWithBuffer(t *testing.T) {
	forEachSortedLayout(t, testSortedIterationOrderWithBuffer)
}

func testSortedIterationOrderWithBuffer(t *testing.T, tm *TransactionalSortedMap[int, int]) {
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for _, k := range []int{10, 20, 30, 40} {
			tm.Put(tx, k, k)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 15, 15) // buffered insert between committed keys
		tm.Remove(tx, 30)  // buffered removal
		tm.Put(tx, 40, 44) // buffered overwrite
		tm.Put(tx, 50, 50) // buffered append
		var got []int
		tm.ForEach(tx, func(k, v int) bool {
			got = append(got, k)
			if k == 40 && v != 44 {
				t.Errorf("overwritten value not seen: %d", v)
			}
			return true
		})
		want := []int{10, 15, 20, 40, 50}
		if len(got) != len(want) {
			t.Fatalf("iteration = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iteration = %v, want %v", got, want)
			}
		}
	})
}

func TestSubMapViewIteration(t *testing.T) {
	forEachSortedLayout(t, testSubMapViewIteration)
}

func testSubMapViewIteration(t *testing.T, tm *TransactionalSortedMap[int, int]) {
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for i := 0; i < 100; i += 10 {
			tm.Put(tx, i, i)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		v := tm.SubMap(25, 65)
		got := v.Keys(tx)
		want := []int{30, 40, 50, 60}
		if len(got) != len(want) {
			t.Fatalf("submap keys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("submap keys = %v, want %v", got, want)
			}
		}
		if got := tm.HeadMap(30).Keys(tx); len(got) != 3 {
			t.Fatalf("headmap keys = %v", got)
		}
		if got := tm.TailMap(70).Keys(tx); len(got) != 3 {
			t.Fatalf("tailmap keys = %v", got)
		}
	})
}

func TestViewRangeChecks(t *testing.T) {
	tm := newSorted()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) { tm.Put(tx, 10, 10) })
	atomically(t, th, func(tx *stm.Tx) {
		v := tm.SubMap(0, 20)
		if _, ok := v.Get(tx, 10); !ok {
			t.Error("in-range get failed")
		}
		v.Put(tx, 5, 5)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			v.Get(tx, 25)
		}()
	})
}

func TestSubMapMedianLookup(t *testing.T) {
	// The TestSortedMap benchmark's access pattern: read a small range,
	// take the median key.
	tm := newSorted()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for i := 0; i < 50; i++ {
			tm.Put(tx, i, i*i)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		keys := tm.SubMap(10, 20).Keys(tx)
		if len(keys) != 10 {
			t.Fatalf("range size %d", len(keys))
		}
		median := keys[len(keys)/2]
		if v, ok := tm.Get(tx, median); !ok || v != median*median {
			t.Fatalf("median get = (%d,%v)", v, ok)
		}
	})
}

// TestSortedConcurrentDisjointInsertsCommute mirrors Figure 2's claim:
// inserts of different keys into a tree must not semantically conflict,
// despite rebalancing, because the wrapper confines structure access to
// open-nested sections.
func TestSortedConcurrentDisjointInsertsCommute(t *testing.T) {
	tm := newSorted()
	const workers, per = 8, 80
	var wg sync.WaitGroup
	var mu sync.Mutex
	var violations uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := newTh(int64(w))
			for i := 0; i < per; i++ {
				k := i*workers + w
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
		t.Errorf("disjoint inserts caused %d violations", violations)
	}
	th := newTh(99)
	atomically(t, th, func(tx *stm.Tx) {
		ks := tm.Keys(tx)
		if len(ks) != workers*per {
			t.Fatalf("lost inserts: %d keys", len(ks))
		}
		for i := 1; i < len(ks); i++ {
			if ks[i-1] >= ks[i] {
				t.Fatalf("order violated at %d", i)
			}
		}
	})
}

// TestSortedRangeScanInvariant: writers move values between adjacent
// keys while scanners sum a range; serializability demands scanners
// always see the conserved total.
func TestSortedRangeScanInvariant(t *testing.T) {
	tm := newSorted()
	th0 := newTh(0)
	const n = 8
	const total = n * 100
	atomically(t, th0, func(tx *stm.Tx) {
		for i := 0; i < n; i++ {
			tm.Put(tx, i, 100)
		}
	})
	var writers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			th := newTh(int64(w + 1))
			for i := 0; i < 120; i++ {
				a := (w*3 + i) % n
				b := (a + 1) % n
				must(t, th.Atomic(func(tx *stm.Tx) error {
					x, _ := tm.Get(tx, a)
					y, _ := tm.Get(tx, b)
					tm.Put(tx, a, x-5)
					tm.Put(tx, b, y+5)
					return nil
				}))
			}
		}(w)
	}
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		th := newTh(42)
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
				t.Errorf("scan saw %d, want %d", sum, total)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	checker.Wait()
}

func TestSortedSetWrapper(t *testing.T) {
	s := NewTransactionalSortedSet[int](func(a, b int) int { return a - b })
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for _, k := range []int{5, 1, 9, 3} {
			s.Add(tx, k)
		}
		if k, _ := s.First(tx); k != 1 {
			t.Errorf("first = %d", k)
		}
		if k, _ := s.Last(tx); k != 9 {
			t.Errorf("last = %d", k)
		}
		var got []int
		s.ForEach(tx, func(k int) bool {
			got = append(got, k)
			return true
		})
		if len(got) != 4 || got[0] != 1 || got[3] != 9 {
			t.Fatalf("elements = %v", got)
		}
		if s.Size(tx) != 4 || s.IsEmpty(tx) {
			t.Error("size/empty wrong")
		}
		if !s.Remove(tx, 5) || s.Contains(tx, 5) {
			t.Error("remove failed")
		}
	})
}
