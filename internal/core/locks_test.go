package core

// Lock-acquisition tests: one assertion per row of the paper's Table 2
// (Map semantic locks), Table 5 (SortedMap) and Table 8 (Channel) —
// each read operation must take exactly the locks the tables prescribe,
// and write operations must take only the key lock implied by their
// read component (or none, for the Unread variants).

import (
	"testing"

	"tcc/internal/stm"
)

// mapLockState snapshots which locks h holds on tm. first and last are
// Table 5's endpoint locks as the range table expresses them: some range
// lock covers a key below every probe key (above every probe key).
type mapLockState struct {
	keys       []int
	size       bool
	empty      bool
	first      bool
	last       bool
	rangeLocks int
}

func snapshotLocks(tm *TransactionalMap[int, int], tx *stm.Tx, probeKeys []int) mapLockState {
	h := tx.Handle()
	tm.lockSpan(0, len(tm.stripes))
	defer tm.unlockSpan(0, len(tm.stripes))
	st := mapLockState{
		size:  tm.stripes[0].sizeLockers.Holds(h),
		empty: tm.stripes[0].emptyLockers.Holds(h),
	}
	for _, k := range probeKeys {
		if tm.stripes[tm.StripeOf(k)].key2lockers.Holds(k, h) {
			st.keys = append(st.keys, k)
		}
	}
	if tm.sorted != nil && len(probeKeys) > 0 {
		st.first = coversLocked(tm, tx, probeKeys[0]-1)
		st.last = coversLocked(tm, tx, probeKeys[len(probeKeys)-1]+1)
		for _, rt := range tm.sorted.rangeLockers {
			st.rangeLocks += rt.Len()
		}
	}
	return st
}

// assertLocks runs op inside a transaction and compares the locks held
// immediately afterwards (while the transaction is still active).
func assertLocks(t *testing.T, name string, tm *TransactionalMap[int, int], probe []int,
	op func(tx *stm.Tx), want mapLockState) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			op(tx)
			got := snapshotLocks(tm, tx, probe)
			if len(got.keys) != len(want.keys) {
				t.Fatalf("key locks = %v, want %v", got.keys, want.keys)
			}
			for i := range want.keys {
				if got.keys[i] != want.keys[i] {
					t.Fatalf("key locks = %v, want %v", got.keys, want.keys)
				}
			}
			if got.size != want.size {
				t.Errorf("size lock = %v, want %v", got.size, want.size)
			}
			if got.empty != want.empty {
				t.Errorf("empty lock = %v, want %v", got.empty, want.empty)
			}
			if got.first != want.first {
				t.Errorf("first lock = %v, want %v", got.first, want.first)
			}
			if got.last != want.last {
				t.Errorf("last lock = %v, want %v", got.last, want.last)
			}
			if got.rangeLocks != want.rangeLocks {
				t.Errorf("range locks = %d, want %d", got.rangeLocks, want.rangeLocks)
			}
		})
	})
}

// TestMapLocks asserts Table 2 row by row.
func TestMapLocks(t *testing.T) {
	seeded := func() *TransactionalMap[int, int] {
		tm := newIntMap()
		th := newTh(9)
		atomically(t, th, func(tx *stm.Tx) {
			tm.Put(tx, 1, 10)
			tm.Put(tx, 2, 20)
		})
		return tm
	}
	probe := []int{1, 2, 3}

	{
		tm := seeded()
		assertLocks(t, "containsKey", tm, probe,
			func(tx *stm.Tx) { tm.ContainsKey(tx, 1) },
			mapLockState{keys: []int{1}})
	}
	{
		tm := seeded()
		assertLocks(t, "get", tm, probe,
			func(tx *stm.Tx) { tm.Get(tx, 2) },
			mapLockState{keys: []int{2}})
	}
	{
		tm := seeded()
		assertLocks(t, "get-absent-key", tm, probe,
			func(tx *stm.Tx) { tm.Get(tx, 3) },
			mapLockState{keys: []int{3}})
	}
	{
		tm := seeded()
		assertLocks(t, "size", tm, probe,
			func(tx *stm.Tx) { tm.Size(tx) },
			mapLockState{size: true})
	}
	{
		tm := seeded()
		assertLocks(t, "isEmpty", tm, probe,
			func(tx *stm.Tx) { tm.IsEmpty(tx) },
			mapLockState{empty: true})
	}
	{
		tm := seeded()
		assertLocks(t, "put", tm, probe,
			func(tx *stm.Tx) { tm.Put(tx, 1, 11) },
			mapLockState{keys: []int{1}})
	}
	{
		tm := seeded()
		assertLocks(t, "putUnread", tm, probe,
			func(tx *stm.Tx) { tm.PutUnread(tx, 1, 11) },
			mapLockState{})
	}
	{
		tm := seeded()
		assertLocks(t, "remove", tm, probe,
			func(tx *stm.Tx) { tm.Remove(tx, 2) },
			mapLockState{keys: []int{2}})
	}
	{
		tm := seeded()
		assertLocks(t, "removeUnread", tm, probe,
			func(tx *stm.Tx) { tm.RemoveUnread(tx, 2) },
			mapLockState{})
	}
	t.Run("iterator-next", func(t *testing.T) {
		tm := seeded()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			it := tm.Iterator(tx)
			it.Next()
			st := snapshotLocks(tm, tx, probe)
			// Exactly one key lock (whichever key the unordered
			// iterator returned first) and no size lock yet.
			if len(st.keys) != 1 {
				t.Fatalf("key locks = %v, want exactly one", st.keys)
			}
			if st.size {
				t.Fatal("partial iteration must not take the size lock")
			}
		})
	})
	{
		tm := seeded()
		assertLocks(t, "iterator-exhausted", tm, []int{},
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				for it.HasNext() {
					it.Next()
				}
			},
			mapLockState{size: true})
	}
}

// TestMapIteratorNextTakesKeyLock covers the dynamic part of Table 2's
// iterator row: the key lock of each returned key is held.
func TestMapIteratorNextTakesKeyLock(t *testing.T) {
	tm := newIntMap()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 1, 10)
		tm.Put(tx, 2, 20)
	})
	atomically(t, th, func(tx *stm.Tx) {
		it := tm.Iterator(tx)
		h := tx.Handle()
		seen := 0
		for {
			k, _, ok := it.Next()
			if !ok {
				break
			}
			seen++
			tm.lockSpan(0, len(tm.stripes))
			held := tm.stripes[tm.StripeOf(k)].key2lockers.Holds(k, h)
			tm.unlockSpan(0, len(tm.stripes))
			if !held {
				t.Fatalf("iterator returned %d without its key lock", k)
			}
		}
		if seen != 2 {
			t.Fatalf("iterated %d keys", seen)
		}
	})
}

// TestSortedLocks asserts the Table 5 additions.
func TestSortedLocks(t *testing.T) {
	seeded := func() *TransactionalSortedMap[int, int] {
		tm := newSorted()
		th := newTh(9)
		atomically(t, th, func(tx *stm.Tx) {
			for _, k := range []int{10, 20, 30} {
				tm.Put(tx, k, k)
			}
		})
		return tm
	}
	probe := []int{10, 20, 30}

	{
		tm := seeded()
		// Table 5: first lock only — [bottom, 10], no key lock on 10.
		assertLocks(t, "firstKey", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) { tm.FirstKey(tx) },
			mapLockState{first: true, rangeLocks: 1})
	}
	{
		tm := seeded()
		assertLocks(t, "lastKey", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) { tm.LastKey(tx) },
			mapLockState{last: true, rangeLocks: 1})
	}
	{
		tm := seeded()
		assertLocks(t, "iterator-first-next", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				it.Next() // returns 10
			},
			// Table 5: next takes "range lock over iterated values,
			// first lock" for iteration from the beginning — one range
			// open to the bottom of the key space.
			mapLockState{keys: []int{10}, first: true, rangeLocks: 1})
	}
	{
		tm := seeded()
		assertLocks(t, "tailmap-iterator-next", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) {
				it := tm.TailMap(15).Iterator(tx)
				it.Next() // returns 20
			},
			// Bounded start: range lock only, no first lock.
			mapLockState{keys: []int{20}, rangeLocks: 1})
	}
	{
		tm := seeded()
		assertLocks(t, "iterator-exhausted-takes-last", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				for it.HasNext() {
					it.Next()
				}
			},
			mapLockState{keys: []int{10, 20, 30}, first: true, last: true, rangeLocks: 1})
	}
	{
		tm := seeded()
		assertLocks(t, "submap-exhausted-pins-range", &tm.TransactionalMap, probe,
			func(tx *stm.Tx) {
				it := tm.SubMap(10, 25).Iterator(tx)
				for it.HasNext() {
					it.Next()
				}
				// Bounded view exhaustion must not reach the top of the
				// key space; it pins the range to the view bound instead.
			},
			mapLockState{keys: []int{10, 20}, rangeLocks: 1})
	}
}

// TestSortedRangeLockWidens checks that an iterator's single range lock
// grows to cover exactly the observed keys.
func TestSortedRangeLockWidens(t *testing.T) {
	tm := newSorted()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for _, k := range []int{10, 20, 30, 40} {
			tm.Put(tx, k, k)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		it := tm.TailMap(10).Iterator(tx)
		it.Next() // 10
		it.Next() // 20
		if !coversAny(tm, tx, 15) {
			t.Error("range [10,20] should cover 15")
		}
		if coversAny(tm, tx, 25) {
			t.Error("range [10,20] should not cover 25 yet")
		}
		it.Next() // 30
		if !coversAny(tm, tx, 25) {
			t.Error("widened range [10,30] should cover 25")
		}
	})
}

// coversAny reports whether any range lock tx holds on tm covers k.
func coversAny(tm *TransactionalSortedMap[int, int], tx *stm.Tx, k int) bool {
	tm.lockSpan(0, len(tm.stripes))
	defer tm.unlockSpan(0, len(tm.stripes))
	return coversLocked(&tm.TransactionalMap, tx, k)
}

// coversLocked is coversAny for a caller holding every stripe guard. An
// entry in stripe i's table speaks only for stripe i's keys (nil bounds
// mean "to this stripe's edge"), so only k's own stripe is consulted.
func coversLocked(tm *TransactionalMap[int, int], tx *stm.Tx, k int) bool {
	l, ok := tx.Thread().Attachment(tm).(*mapLocal[int, int])
	if !ok || l.h != tx.Handle() {
		return false
	}
	si := tm.StripeOf(k)
	for _, rl := range l.rangeLocks {
		if rl.si == si && tm.sorted.rangeLockers[si].Covers(&rl.RangeEntry, k) {
			return true
		}
	}
	return false
}

// TestQueueLocks asserts Table 8.
func TestQueueLocks(t *testing.T) {
	emptyHeld := func(q *TransactionalQueue[int], h *stm.Handle) bool {
		q.guards[0].Lock()
		defer q.guards[0].Unlock()
		return q.lanes[0].emptyLockers.Holds(h)
	}
	t.Run("peek-empty", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			q.Peek(tx)
			if !emptyHeld(q, tx.Handle()) {
				t.Error("null peek must take the empty lock")
			}
		})
	})
	t.Run("peek-nonempty", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) { q.Put(tx, 1) })
		atomically(t, th, func(tx *stm.Tx) {
			q.Peek(tx)
			if emptyHeld(q, tx.Handle()) {
				t.Error("successful peek must not take the empty lock")
			}
		})
	})
	t.Run("poll-empty", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			q.Poll(tx)
			if !emptyHeld(q, tx.Handle()) {
				t.Error("null poll must take the empty lock")
			}
		})
	})
	t.Run("poll-nonempty", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) { q.Put(tx, 1) })
		atomically(t, th, func(tx *stm.Tx) {
			q.Poll(tx)
			if emptyHeld(q, tx.Handle()) {
				t.Error("successful poll must not take the empty lock")
			}
		})
	})
	t.Run("put", func(t *testing.T) {
		q := newQueue()
		th := newTh(1)
		atomically(t, th, func(tx *stm.Tx) {
			q.Put(tx, 1)
			if emptyHeld(q, tx.Handle()) {
				t.Error("put must not take the empty lock")
			}
		})
	})
}
