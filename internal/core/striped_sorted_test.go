package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

// newRangeStripedIntSortedMap builds a sorted map over [0, 64) with the
// given number of interval stripes, each stripe owning a contiguous
// 64/n-key interval.
func newRangeStripedIntSortedMap(stripes int) *TransactionalSortedMap[int, int] {
	var boundaries []int
	for i := 1; i < stripes; i++ {
		boundaries = append(boundaries, i*64/stripes)
	}
	return NewRangeStripedTransactionalSortedMap[int, int](func() collections.SortedMap[int, int] {
		return collections.NewTreeMap[int, int]()
	}, boundaries)
}

// TestRangeStripedSortedMapBasics drives the full SortedMap surface
// through an interval-striped instance, with commits spanning several
// stripes (multi-stripe footprints, per-stripe range tables, the
// cross-stripe walk paths).
func TestRangeStripedSortedMapBasics(t *testing.T) {
	tm := newRangeStripedIntSortedMap(8)
	if got := tm.Stripes(); got != 8 {
		t.Fatalf("Stripes = %d, want 8", got)
	}
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for k := 0; k < 64; k += 2 {
			tm.Put(tx, k, k*10)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		if got := tm.Size(tx); got != 32 {
			t.Fatalf("Size = %d, want 32", got)
		}
		if k, ok := tm.FirstKey(tx); !ok || k != 0 {
			t.Fatalf("FirstKey = (%d,%v), want (0,true)", k, ok)
		}
		if k, ok := tm.LastKey(tx); !ok || k != 62 {
			t.Fatalf("LastKey = (%d,%v), want (62,true)", k, ok)
		}
		// Navigation across a stripe boundary: 15 is stripe 1's last
		// key-slot, 16 starts stripe 2.
		if k, ok := tm.CeilingKey(tx, 15); !ok || k != 16 {
			t.Fatalf("CeilingKey(15) = (%d,%v), want (16,true)", k, ok)
		}
		if k, ok := tm.FloorKey(tx, 15); !ok || k != 14 {
			t.Fatalf("FloorKey(15) = (%d,%v), want (14,true)", k, ok)
		}
		if k, ok := tm.HigherKey(tx, 62); ok {
			t.Fatalf("HigherKey(62) = (%d,%v), want none", k, ok)
		}
		if k, ok := tm.LowerKey(tx, 0); ok {
			t.Fatalf("LowerKey(0) = (%d,%v), want none", k, ok)
		}
		keys := tm.Keys(tx)
		if len(keys) != 32 || !sort.IntsAreSorted(keys) {
			t.Fatalf("Keys: %d entries, sorted=%v", len(keys), sort.IntsAreSorted(keys))
		}
		// A bounded view spanning three stripes.
		got := tm.SubMap(10, 40).Keys(tx)
		var want []int
		for k := 10; k < 40; k += 2 {
			want = append(want, k)
		}
		if len(got) != len(want) {
			t.Fatalf("SubMap(10,40).Keys = %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("SubMap(10,40).Keys = %v, want %v", got, want)
			}
		}
	})
	// Buffered writes merge into the striped walks before commit.
	atomically(t, th, func(tx *stm.Tx) {
		tm.Remove(tx, 0)
		tm.Put(tx, 63, 630)
		if k, ok := tm.FirstKey(tx); !ok || k != 2 {
			t.Fatalf("FirstKey after buffered remove = (%d,%v), want (2,true)", k, ok)
		}
		if k, ok := tm.LastKey(tx); !ok || k != 63 {
			t.Fatalf("LastKey with buffered put = (%d,%v), want (63,true)", k, ok)
		}
		if k, ok := tm.CeilingKey(tx, 62); !ok || k != 62 {
			t.Fatalf("CeilingKey(62) = (%d,%v), want (62,true)", k, ok)
		}
		if k, ok := tm.HigherKey(tx, 62); !ok || k != 63 {
			t.Fatalf("HigherKey(62) with buffered put = (%d,%v), want (63,true)", k, ok)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		if got := tm.Size(tx); got != 32 {
			t.Fatalf("Size after remove+put = %d, want 32", got)
		}
	})
}

// TestRangeStripedSingleStripeEquivalence: a 1-stripe range-striped map
// is the degenerate case of the one stripe engine — an endpoint query
// lays a range lock from the bottom of the key space to its answer.
func TestRangeStripedSingleStripeEquivalence(t *testing.T) {
	tm := newRangeStripedIntSortedMap(1)
	if tm.Stripes() != 1 || tm.mask != 0 {
		t.Fatalf("1-stripe map: stripes=%d mask=%d", tm.Stripes(), tm.mask)
	}
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 1, 10)
		tm.Put(tx, 2, 20)
	})
	atomically(t, th, func(tx *stm.Tx) {
		if k, ok := tm.FirstKey(tx); !ok || k != 1 {
			t.Fatalf("FirstKey = (%d,%v)", k, ok)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		tm.FirstKey(tx)
		if !coversAny(tm, tx, 0) || !coversAny(tm, tx, 1) {
			t.Error("single-stripe FirstKey did not lock the range [bottom, 1]")
		}
		if coversAny(tm, tx, 2) {
			t.Error("single-stripe FirstKey locked beyond its answer")
		}
	})
}

// TestRangeStripedDisjointRangeHandlerWindowsOverlap is the tentpole's
// rendezvous proof for the sorted map, mirroring
// TestStripedDisjointKeyHandlerWindowsOverlap: two transactions
// committing keys in different interval stripes of the SAME sorted map
// hold their commit-handler windows at the same time. Under the old
// single-guard sorted map the first committer would block inside its
// window waiting for a handler the shared guard prevents from starting,
// and the rendezvous would time out.
func TestRangeStripedDisjointRangeHandlerWindowsOverlap(t *testing.T) {
	tm := newRangeStripedIntSortedMap(8)
	k1, k2 := 3, 60 // stripe 0 and stripe 7
	if tm.StripeOf(k1) == tm.StripeOf(k2) {
		t.Fatalf("test keys landed on one stripe: %d", tm.StripeOf(k1))
	}
	aIn, bIn := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	var onceA, onceB sync.Once
	go func() {
		defer wg.Done()
		th := newTh(1)
		_ = th.Atomic(func(tx *stm.Tx) error {
			tm.Put(tx, k1, 1)
			tx.OnCommitGuarded(tm.StripeGuard(k1), func() {
				onceA.Do(func() { close(aIn) })
				<-bIn
			})
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		th := newTh(2)
		_ = th.Atomic(func(tx *stm.Tx) error {
			tm.Put(tx, k2, 2)
			tx.OnCommitGuarded(tm.StripeGuard(k2), func() {
				onceB.Do(func() { close(bIn) })
				<-aIn
			})
			return nil
		})
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("disjoint-range handler windows on one striped sorted map did not overlap")
	}
	th := newTh(3)
	atomically(t, th, func(tx *stm.Tx) {
		if v, ok := tm.Get(tx, k1); !ok || v != 1 {
			t.Errorf("Get(k1) = (%d,%v) after overlapping commits", v, ok)
		}
		if v, ok := tm.Get(tx, k2); !ok || v != 2 {
			t.Errorf("Get(k2) = (%d,%v) after overlapping commits", v, ok)
		}
	})
}

// TestRangeStripedScanSerializability checks the cross-stripe scan
// path's conflict detection: a scan that spans stripes is violated by
// an insert into any interval it covered, while operations confined to
// intervals the scan never reached commute.
func TestRangeStripedScanSerializability(t *testing.T) {
	seed := func(tm *TransactionalSortedMap[int, int], keys ...int) func(tx *stm.Tx) {
		return func(tx *stm.Tx) {
			for _, k := range keys {
				tm.Put(tx, k, k)
			}
		}
	}
	{ // Whole-map scan vs insert into a middle stripe: conflict.
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "spanning-scan/insert-covered", true,
			seed(tm, 2, 30, 60),
			func(tx *stm.Tx) { tm.Keys(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 33, 33) },
		)
	}
	{ // Scan confined to stripe 0's interval vs insert into stripe 7: commute.
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "confined-scan/insert-elsewhere", false,
			seed(tm, 2, 5, 60),
			func(tx *stm.Tx) { tm.SubMap(0, 8).Keys(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 61, 61) },
		)
	}
	{ // Bounded scan pins its tail: insert below the bound conflicts...
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "bounded-scan/insert-in-tail-gap", true,
			seed(tm, 2),
			func(tx *stm.Tx) { tm.SubMap(0, 30).Keys(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 20, 20) },
		)
	}
	{ // ...and an insert at the bound does not.
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "bounded-scan/insert-at-bound", false,
			seed(tm, 2),
			func(tx *stm.Tx) { tm.SubMap(0, 30).Keys(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 30, 30) },
		)
	}
	{ // A cross-stripe navigation walk locks the gap it crossed.
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "cross-stripe-ceiling/insert-in-gap", true,
			seed(tm, 60),
			func(tx *stm.Tx) { tm.CeilingKey(tx, 5) }, // walks stripes 0..7, answers 60
			func(tx *stm.Tx) { tm.Put(tx, 33, 33) },
		)
	}
	{ // The walk's gap lock stops at the answer: inserts above commute.
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "cross-stripe-ceiling/insert-above-answer", false,
			seed(tm, 30),
			func(tx *stm.Tx) { tm.CeilingKey(tx, 5) }, // answers 30
			func(tx *stm.Tx) { tm.Put(tx, 50, 50) },
		)
	}
	{ // Endpoint walks are violated by a new minimum...
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "first-key/insert-new-min", true,
			seed(tm, 30),
			func(tx *stm.Tx) { tm.FirstKey(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 3, 3) },
		)
	}
	{ // ...but commute with inserts above the observed minimum.
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "first-key/insert-above-min", false,
			seed(tm, 10),
			func(tx *stm.Tx) { tm.FirstKey(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 50, 50) },
		)
	}
	{ // Disjoint point reads on different stripes commute.
		tm := newRangeStripedIntSortedMap(8)
		expectConflict(t, "point-get/put-other-stripe", false,
			seed(tm, 2, 60),
			func(tx *stm.Tx) { tm.Get(tx, 2) },
			func(tx *stm.Tx) { tm.Put(tx, 60, 61) },
		)
	}
}

// TestSampleRangeBoundaries checks the quantile splitter policy.
func TestSampleRangeBoundaries(t *testing.T) {
	cmp := func(a, b int) int { return a - b }
	var sample []int
	for i := 0; i < 1024; i++ {
		sample = append(sample, i)
	}
	bs := SampleRangeBoundaries(sample, cmp, 8)
	if len(bs) != 7 {
		t.Fatalf("boundaries = %v, want 7 quantiles", bs)
	}
	if !sort.IntsAreSorted(bs) {
		t.Fatalf("boundaries not sorted: %v", bs)
	}
	tm := NewRangeStripedTransactionalSortedMap[int, int](func() collections.SortedMap[int, int] {
		return collections.NewTreeMap[int, int]()
	}, bs)
	if tm.Stripes() != 8 {
		t.Fatalf("Stripes = %d, want 8", tm.Stripes())
	}
	// Tiny samples degrade gracefully to fewer stripes.
	bs = SampleRangeBoundaries([]int{1, 2}, cmp, 8)
	tm = NewRangeStripedTransactionalSortedMap[int, int](func() collections.SortedMap[int, int] {
		return collections.NewTreeMap[int, int]()
	}, bs)
	if tm.Stripes() > 2 {
		t.Fatalf("Stripes = %d from a 2-key sample", tm.Stripes())
	}
}
