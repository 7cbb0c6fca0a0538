package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

func newStripedIntMap(stripes int) *TransactionalMap[int, int] {
	return NewStripedTransactionalMap[int, int](func() collections.Map[int, int] {
		return collections.NewHashMap[int, int]()
	}, stripes)
}

// disjointStripeKeys returns two keys that hash to different stripes of
// tm (they exist for any map with more than one stripe).
func disjointStripeKeys(t *testing.T, tm *TransactionalMap[int, int]) (int, int) {
	t.Helper()
	for k2 := 1; k2 < 1<<16; k2++ {
		if tm.StripeOf(k2) != tm.StripeOf(0) {
			return 0, k2
		}
	}
	t.Fatal("no disjoint-stripe key pair found")
	return 0, 0
}

// TestStripedMapBasics drives the full Map surface through a 16-stripe
// map, with commits that span many stripes at once (multi-stripe
// footprints, per-stripe size bookkeeping, striped iteration).
func TestStripedMapBasics(t *testing.T) {
	tm := newStripedIntMap(16)
	th := newTh(1)
	const n = 200
	for base := 0; base < n; base += 50 {
		b := base
		atomically(t, th, func(tx *stm.Tx) {
			for k := b; k < b+50; k++ {
				tm.Put(tx, k, k*10)
			}
		})
	}
	atomically(t, th, func(tx *stm.Tx) {
		if got := tm.Size(tx); got != n {
			t.Fatalf("Size = %d, want %d", got, n)
		}
		if tm.IsEmpty(tx) {
			t.Fatal("IsEmpty on a populated map")
		}
		for k := 0; k < n; k++ {
			if v, ok := tm.Get(tx, k); !ok || v != k*10 {
				t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
			}
		}
		keys := tm.Keys(tx)
		sort.Ints(keys)
		if len(keys) != n || keys[0] != 0 || keys[n-1] != n-1 {
			t.Fatalf("Keys: len=%d first=%d last=%d", len(keys), keys[0], keys[len(keys)-1])
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		for k := 0; k < n; k += 2 {
			if old, had := tm.Remove(tx, k); !had || old != k*10 {
				t.Fatalf("Remove(%d) = (%d,%v)", k, old, had)
			}
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		if got := tm.Size(tx); got != n/2 {
			t.Fatalf("Size after removals = %d, want %d", got, n/2)
		}
		if tm.ContainsKey(tx, 0) || !tm.ContainsKey(tx, 1) {
			t.Fatal("wrong membership after removing even keys")
		}
		tm.Clear(tx)
	})
	atomically(t, th, func(tx *stm.Tx) {
		if !tm.IsEmpty(tx) {
			t.Fatal("IsEmpty false after Clear")
		}
	})
}

// TestStripedMapNormalization: the stripe count is clamped to [1, 64]
// and rounded up to a power of two; 0 means the default.
func TestStripedMapNormalization(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultStripes}, {-3, DefaultStripes},
		{1, 1}, {2, 2}, {5, 8}, {16, 16}, {100, maxStripes},
	}
	for _, c := range cases {
		if got := newStripedIntMap(c.in).Stripes(); got != c.want {
			t.Errorf("Stripes(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := newIntMap().Stripes(); got != 1 {
		t.Errorf("NewTransactionalMap stripes = %d, want 1", got)
	}
}

// TestStripedMapGuardLabels: SetName labels each stripe guard
// name.stripe[i] so conflict profiles attribute guard contention to
// individual stripes; a single-stripe map keeps the plain name.
func TestStripedMapGuardLabels(t *testing.T) {
	tm := newStripedIntMap(4)
	tm.SetName("hot")
	for i := 0; i < 4; i++ {
		want := "hot.stripe[" + []string{"0", "1", "2", "3"}[i] + "]"
		if got := tm.guards[i].Label(); got != want {
			t.Errorf("stripe %d label = %q, want %q", i, got, want)
		}
	}
	single := newIntMap()
	single.SetName("solo")
	if got := single.Guard().Label(); got != "solo" {
		t.Errorf("single-stripe label = %q, want %q", got, "solo")
	}
}

// TestStripedMapConflicts re-checks the Table 1 cells that striping
// could plausibly have broken: same-key conflicts must survive, and
// disjoint-key operations on different stripes must still commute.
func TestStripedMapConflicts(t *testing.T) {
	{ // same key, necessarily same stripe: conflict preserved.
		tm := newStripedIntMap(16)
		expectConflict(t, "striped-containsKey/put-same-key", true,
			nil,
			func(tx *stm.Tx) { tm.ContainsKey(tx, 1) },
			func(tx *stm.Tx) { tm.Put(tx, 1, 10) })
	}
	{ // disjoint keys on disjoint stripes: no conflict.
		tm := newStripedIntMap(16)
		k1, k2 := disjointStripeKeys(t, tm)
		expectConflict(t, "striped-get/put-disjoint-stripes", false,
			func(tx *stm.Tx) { tm.Put(tx, k1, 1) },
			func(tx *stm.Tx) { tm.Get(tx, k1) },
			func(tx *stm.Tx) { tm.Put(tx, k2, 2) })
	}
	{ // a size reader is still violated by an insert on any stripe.
		tm := newStripedIntMap(16)
		k1, k2 := disjointStripeKeys(t, tm)
		expectConflict(t, "striped-size/put-any-stripe", true,
			func(tx *stm.Tx) { tm.Put(tx, k1, 1) },
			func(tx *stm.Tx) { tm.Size(tx) },
			func(tx *stm.Tx) { tm.Put(tx, k2, 2) })
	}
	{ // overwriting an existing key changes no stripe's size: commutes
		// with a size reader even on the same stripe.
		tm := newStripedIntMap(16)
		expectConflict(t, "striped-size/overwrite", false,
			func(tx *stm.Tx) { tm.Put(tx, 1, 1) },
			func(tx *stm.Tx) { tm.Size(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 1, 2) })
	}
	{ // empty→nonempty transition still violates an isEmpty reader.
		tm := newStripedIntMap(16)
		expectConflict(t, "striped-isEmpty/first-put", true,
			nil,
			func(tx *stm.Tx) { tm.IsEmpty(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 1, 1) })
	}
}

// TestStripedDisjointKeyHandlerWindowsOverlap is the tentpole's
// rendezvous proof: two transactions committing disjoint keys of the
// SAME striped map hold their commit-handler windows at the same time.
// Each handler closes its own channel and then waits for the other's;
// the rendezvous can only complete if the two windows overlap. Under a
// single shared guard (the pre-striping layout, or any S=1 map) the
// first committer would block inside its window waiting for a handler
// the guard prevents from starting, and the test would time out.
func TestStripedDisjointKeyHandlerWindowsOverlap(t *testing.T) {
	tm := newStripedIntMap(16)
	k1, k2 := disjointStripeKeys(t, tm)
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
		t.Fatal("disjoint-key handler windows on one striped map did not overlap")
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
