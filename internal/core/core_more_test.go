package core

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

func TestMapValuesEntriesClear(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for i := 0; i < 5; i++ {
			tm.Put(tx, i, i*10)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		vals := tm.Values(tx)
		sort.Ints(vals)
		if len(vals) != 5 || vals[0] != 0 || vals[4] != 40 {
			t.Fatalf("values = %v", vals)
		}
		es := tm.Entries(tx)
		if len(es) != 5 {
			t.Fatalf("entries = %v", es)
		}
		for _, e := range es {
			if e.Val != e.Key*10 {
				t.Fatalf("entry %+v", e)
			}
		}
		if got := tm.GetOrDefault(tx, 2, -1); got != 20 {
			t.Fatalf("getOrDefault hit = %d", got)
		}
		if got := tm.GetOrDefault(tx, 99, -1); got != -1 {
			t.Fatalf("getOrDefault miss = %d", got)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		tm.Clear(tx)
		if !tm.IsEmpty(tx) {
			t.Fatal("clear left entries in this transaction's view")
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		if n := tm.Size(tx); n != 0 {
			t.Fatalf("committed size after clear = %d", n)
		}
	})
}

func TestIteratorOnEmptyMap(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		it := tm.Iterator(tx)
		if it.HasNext() {
			t.Fatal("empty map has next")
		}
		if _, _, ok := it.Next(); ok {
			t.Fatal("Next on empty iterator succeeded")
		}
		// HasNext()==false on an empty map still reveals the size.
		tm.lockSpan(0, len(tm.stripes))
		n := tm.stripes[0].sizeLockers.Len()
		tm.unlockSpan(0, len(tm.stripes))
		if n != 1 {
			t.Fatal("exhausted empty iterator must hold the size lock")
		}
	})
}

func TestIteratorAllEntriesBufferedRemoved(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 1, 1)
		tm.Put(tx, 2, 2)
	})
	atomically(t, th, func(tx *stm.Tx) {
		tm.Remove(tx, 1)
		tm.Remove(tx, 2)
		count := 0
		tm.ForEach(tx, func(int, int) bool {
			count++
			return true
		})
		if count != 0 {
			t.Fatalf("iterated %d entries through own removals", count)
		}
	})
}

func TestIteratorBufferedOnly(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 7, 70)
		tm.PutUnread(tx, 8, 80)
		got := map[int]int{}
		tm.ForEach(tx, func(k, v int) bool {
			got[k] = v
			return true
		})
		if len(got) != 2 || got[7] != 70 || got[8] != 80 {
			t.Fatalf("buffered-only iteration = %v", got)
		}
	})
}

func TestSortedIteratorOnEmptyMap(t *testing.T) {
	tm := newSorted()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		it := tm.Iterator(tx)
		if it.HasNext() {
			t.Fatal("empty sorted map has next")
		}
		// Unbounded exhaustion observed the whole (empty) key space:
		// Table 5's first and last locks, as one range.
		if !coversAny(tm, tx, -1<<31) || !coversAny(tm, tx, 1<<31) {
			t.Fatal("exhausted unbounded iterator must hold a range lock over the whole key space")
		}
	})
}

func TestSortedEmptyViewTakesRangeLock(t *testing.T) {
	tm := newSorted()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 100, 1)
	})
	// A view over an empty range, fully drained, must lock that range
	// so an insert into it conflicts.
	{
		parked := make(chan struct{})
		release := make(chan struct{})
		done := make(chan error, 1)
		attempts := 0
		go func() {
			th1 := newTh(2)
			done <- th1.Atomic(func(tx *stm.Tx) error {
				attempts = tx.Attempt() + 1
				it := tm.SubMap(10, 20).Iterator(tx)
				if it.HasNext() && tx.Attempt() == 0 {
					t.Error("view [10,20) should be empty")
				}
				if tx.Attempt() == 0 {
					parked <- struct{}{}
					<-release
				}
				return nil
			})
		}()
		<-parked
		th2 := newTh(3)
		atomically(t, th2, func(tx *stm.Tx) { tm.Put(tx, 15, 15) })
		close(release)
		must(t, <-done)
		if attempts < 2 {
			t.Fatal("insert into drained empty view did not conflict")
		}
	}
}

func TestEagerWriteCheckStillSerializable(t *testing.T) {
	// The pessimistic variant must preserve the same end state for
	// concurrent read-modify-writes.
	tm := newIntMap()
	tm.SetEagerWriteCheck(true)
	th0 := newTh(0)
	atomically(t, th0, func(tx *stm.Tx) { tm.Put(tx, 0, 0) })
	const workers, per = 4, 50
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
			t.Fatalf("eager counter = %d, want %d", v, workers*per)
		}
	})
}

func TestEagerWriteCheckAbortsReaderEarly(t *testing.T) {
	tm := newIntMap()
	tm.SetEagerWriteCheck(true)
	th0 := newTh(0)
	atomically(t, th0, func(tx *stm.Tx) { tm.Put(tx, 1, 1) })

	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	attempts := 0
	go func() {
		th1 := newTh(1)
		done <- th1.Atomic(func(tx *stm.Tx) error {
			attempts = tx.Attempt() + 1
			tm.Get(tx, 1)
			if tx.Attempt() == 0 {
				parked <- struct{}{}
				<-release
			}
			return nil
		})
	}()
	<-parked
	// The writer's Put itself (not its commit) must violate the parked
	// reader under the eager policy. The writer transaction then parks
	// *without committing*; the reader must already be violated.
	writerParked := make(chan struct{})
	writerRelease := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		th2 := newTh(2)
		writerDone <- th2.Atomic(func(tx *stm.Tx) error {
			tm.Put(tx, 1, 2)
			if tx.Attempt() == 0 {
				writerParked <- struct{}{}
				<-writerRelease
			}
			return nil
		})
	}()
	<-writerParked
	close(release) // reader resumes; its commit must observe the violation
	must(t, <-done)
	if attempts < 2 {
		t.Fatal("eager write did not abort the reader before the writer committed")
	}
	close(writerRelease)
	must(t, <-writerDone)
}

func TestQueueOfferAndCommittedSize(t *testing.T) {
	q := newQueue()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		if !q.Offer(tx, 1) {
			t.Fatal("offer on unbounded queue refused")
		}
		if !q.Offer(tx, 2) {
			t.Fatal("offer refused")
		}
	})
	if q.CommittedSize() != 2 {
		t.Fatalf("committed size = %d", q.CommittedSize())
	}
}

func TestQueueAbortAfterMixedOps(t *testing.T) {
	q := newQueue()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		q.Put(tx, 1)
		q.Put(tx, 2)
	})
	boom := errors.New("boom")
	_ = th.Atomic(func(tx *stm.Tx) error {
		// Take a committed element, add two, take one of our own.
		if v, ok := q.Poll(tx); !ok || v != 1 {
			t.Errorf("poll = (%d,%v)", v, ok)
		}
		q.Put(tx, 10)
		q.Put(tx, 11)
		if v, ok := q.Poll(tx); !ok || v != 2 {
			// second committed element comes before own adds
			t.Errorf("second poll = (%d,%v)", v, ok)
		}
		if v, ok := q.Poll(tx); !ok || v != 10 {
			t.Errorf("third poll (own add) = (%d,%v)", v, ok)
		}
		return boom
	})
	// Abort: the two committed takes return; the own adds vanish.
	if q.CommittedSize() != 2 {
		t.Fatalf("committed size after abort = %d, want 2", q.CommittedSize())
	}
	seen := map[int]bool{}
	atomically(t, th, func(tx *stm.Tx) {
		for {
			v, ok := q.Poll(tx)
			if !ok {
				break
			}
			seen[v] = true
		}
	})
	if !seen[1] || !seen[2] || len(seen) != 2 {
		t.Fatalf("queue contents after compensation = %v", seen)
	}
}

func TestCounterGetIsReducedIsolation(t *testing.T) {
	c := NewCounter(0)
	th1, th2 := newTh(1), newTh(2)
	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- th1.Atomic(func(tx *stm.Tx) error {
			c.Add(tx, 10)
			if tx.Attempt() == 0 {
				parked <- struct{}{}
				<-release
			}
			return nil
		})
	}()
	<-parked
	// Reduced isolation: th2 sees th1's uncommitted increment, and is
	// not aborted when th1 later commits.
	atomically(t, th2, func(tx *stm.Tx) {
		if got := c.Get(tx); got != 10 {
			t.Errorf("reduced-isolation read = %d, want 10", got)
		}
	})
	close(release)
	must(t, <-done)
	if th2.Stats.Violations != 0 {
		t.Fatal("counter read caused a violation")
	}
}

func TestUIDGenCurrentDoesNotConflict(t *testing.T) {
	g := NewUIDGen(100)
	th1, th2 := newTh(1), newTh(2)
	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	attempts := 0
	go func() {
		done <- th1.Atomic(func(tx *stm.Tx) error {
			attempts = tx.Attempt() + 1
			if got := g.Current(tx); got < 100 {
				t.Errorf("current = %d", got)
			}
			if tx.Attempt() == 0 {
				parked <- struct{}{}
				<-release
			}
			return nil
		})
	}()
	<-parked
	atomically(t, th2, func(tx *stm.Tx) { g.Next(tx) })
	close(release)
	must(t, <-done)
	if attempts != 1 {
		t.Fatalf("Current() reader restarted %d times; it must never conflict", attempts-1)
	}
}

// TestTwoMapsComposedAtomicity moves tokens between two different
// TransactionalMaps in one transaction; a checker must always see a
// conserved cross-map total.
func TestTwoMapsComposedAtomicity(t *testing.T) {
	a := newIntMap()
	b := newIntMap()
	th0 := newTh(0)
	atomically(t, th0, func(tx *stm.Tx) {
		a.Put(tx, 0, 100)
		b.Put(tx, 0, 100)
	})
	var movers sync.WaitGroup
	stop := make(chan struct{})
	movers.Add(1)
	go func() {
		defer movers.Done()
		th := newTh(1)
		for i := 0; i < 200; i++ {
			must(t, th.Atomic(func(tx *stm.Tx) error {
				x, _ := a.Get(tx, 0)
				y, _ := b.Get(tx, 0)
				a.Put(tx, 0, x-3)
				b.Put(tx, 0, y+3)
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
			var x, y int
			must(t, th.Atomic(func(tx *stm.Tx) error {
				x, _ = a.Get(tx, 0)
				y, _ = b.Get(tx, 0)
				return nil
			}))
			if x+y != 200 {
				t.Errorf("cross-map atomicity broken: %d + %d", x, y)
				return
			}
		}
	}()
	movers.Wait()
	close(stop)
	checker.Wait()
}

// TestWrapperOverTreeMapAndHashMapEquivalent: the wrapper's semantics
// must not depend on the wrapped implementation.
func TestWrapperOverTreeMapAndHashMapEquivalent(t *testing.T) {
	impls := map[string]collections.Map[int, int]{
		"hashmap": collections.NewHashMap[int, int](),
		"treemap": collections.NewTreeMap[int, int](),
	}
	for name, impl := range impls {
		t.Run(name, func(t *testing.T) {
			tm := NewTransactionalMap[int, int](impl)
			th := newTh(1)
			atomically(t, th, func(tx *stm.Tx) {
				for i := 0; i < 50; i++ {
					tm.Put(tx, i, i)
				}
				tm.Remove(tx, 25)
				if n := tm.Size(tx); n != 49 {
					t.Fatalf("size = %d", n)
				}
			})
			atomically(t, th, func(tx *stm.Tx) {
				if tm.ContainsKey(tx, 25) {
					t.Fatal("removed key present")
				}
				if n := len(tm.Keys(tx)); n != 49 {
					t.Fatalf("keys = %d", n)
				}
			})
		})
	}
}

// TestHandlerRegistrationOrder pins when a single-partition collection
// joins a transaction: at its first operation (the first touch) — for a
// sorted iterator, at creation — so commit handlers of several
// collections run in the order the body first used them.
func TestHandlerRegistrationOrder(t *testing.T) {
	m, q, sm := newIntMap(), newQueue(), newSorted()
	type state struct{ m, q, sm bool }
	var got []state
	mark := func(tx *stm.Tx) {
		// Runs inside the commit window with every touched guard held.
		tx.OnTopCommitGuarded(m.Guard(), func() {
			got = append(got, state{
				m:  m.stripes[0].m.ContainsKey(2),
				q:  q.lanes[0].q.Size() == 1,
				sm: sm.stripes[0].m.ContainsKey(30),
			})
		})
	}
	atomically(t, newTh(1), func(tx *stm.Tx) {
		got = got[:0]
		m.Get(tx, 1)
		mark(tx)
		q.Put(tx, 7)
		mark(tx)
		it := sm.Iterator(tx)
		mark(tx)
		m.Put(tx, 2, 2)
		it.Next()
		sm.Put(tx, 30, 30)
	})
	want := []state{{m: true}, {m: true, q: true}, {m: true, q: true, sm: true}}
	if len(got) != len(want) {
		t.Fatalf("marks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("applied (map, queue, sorted) at mark %d = %v, want %v", i, got[i], want[i])
		}
	}
}
