package core

import (
	"testing"

	"tcc/internal/stm"
)

// runInterleaved executes the two-transaction interleaving used to
// check each cell of the paper's conflict matrices (Tables 1, 4, 7):
//
//	T1 runs `first` (typically a read operation taking semantic locks)
//	and parks; T2 then runs `second` to completion (its commit handler
//	performs semantic conflict detection); T1 resumes and tries to
//	commit.
//
// It returns whether T1 was aborted and re-executed — i.e. whether the
// implementation detected a conflict between the two operations.
func runInterleaved(t *testing.T, setup, first, second func(tx *stm.Tx)) (conflicted bool) {
	t.Helper()
	th0 := stm.NewThread(&stm.RealClock{}, 0)
	if setup != nil {
		atomically(t, th0, setup)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	attempts := 0
	go func() {
		th1 := stm.NewThread(&stm.RealClock{}, 1)
		done <- th1.Atomic(func(tx *stm.Tx) error {
			attempts = tx.Attempt() + 1
			first(tx)
			if tx.Attempt() == 0 {
				parked <- struct{}{}
				<-release
			}
			return nil
		})
	}()
	<-parked
	th2 := stm.NewThread(&stm.RealClock{}, 2)
	atomically(t, th2, second)
	close(release)
	must(t, <-done)
	return attempts > 1
}

// expectConflict asserts the cell's verdict.
func expectConflict(t *testing.T, name string, want bool, setup, first, second func(tx *stm.Tx)) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		got := runInterleaved(t, setup, first, second)
		if got != want {
			if want {
				t.Fatalf("%s: expected a semantic conflict, but both transactions committed untouched", name)
			}
			t.Fatalf("%s: operations should commute, but the reader was aborted", name)
		}
	})
}

// TestTable1MapConflictMatrix encodes Table 1 (and the Table 2 locking
// rules that implement it): the conditions under which Map operations
// conflict.
func TestTable1MapConflictMatrix(t *testing.T) {
	seed := func(tm *TransactionalMap[int, int], pairs ...int) func(tx *stm.Tx) {
		return func(tx *stm.Tx) {
			for i := 0; i+1 < len(pairs); i += 2 {
				tm.Put(tx, pairs[i], pairs[i+1])
			}
		}
	}

	{ // containsKey vs put: conflict when put adds an entry with the same key.
		tm := newIntMap()
		expectConflict(t, "containsKey/put-same-new-key", true,
			seed(tm),
			func(tx *stm.Tx) {
				if tm.ContainsKey(tx, 1) && tx.Attempt() == 0 {
					t.Error("key 1 unexpectedly present")
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 1, 1) },
		)
	}
	{ // containsKey vs put of a different key: commute.
		tm := newIntMap()
		expectConflict(t, "containsKey/put-different-key", false,
			seed(tm, 1, 1),
			func(tx *stm.Tx) { tm.ContainsKey(tx, 1) },
			func(tx *stm.Tx) { tm.Put(tx, 2, 2) },
		)
	}
	{ // get vs remove of the same key: conflict.
		tm := newIntMap()
		expectConflict(t, "get/remove-same-key", true,
			seed(tm, 1, 10),
			func(tx *stm.Tx) { tm.Get(tx, 1) },
			func(tx *stm.Tx) { tm.Remove(tx, 1) },
		)
	}
	{ // get vs remove of a different key: commute.
		tm := newIntMap()
		expectConflict(t, "get/remove-different-key", false,
			seed(tm, 1, 10, 2, 20),
			func(tx *stm.Tx) { tm.Get(tx, 1) },
			func(tx *stm.Tx) { tm.Remove(tx, 2) },
		)
	}
	{ // get vs put replacing the same key's value: value readers must
		// be ordered against value writers (Table 2: key conflict based
		// on argument).
		tm := newIntMap()
		expectConflict(t, "get/put-same-key-replace", true,
			seed(tm, 1, 10),
			func(tx *stm.Tx) { tm.Get(tx, 1) },
			func(tx *stm.Tx) { tm.Put(tx, 1, 11) },
		)
	}
	{ // size vs put adding a new entry: conflict.
		tm := newIntMap()
		expectConflict(t, "size/put-new-key", true,
			seed(tm, 1, 1),
			func(tx *stm.Tx) { tm.Size(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 2, 2) },
		)
	}
	{ // size vs put replacing a value: size unchanged, commute.
		tm := newIntMap()
		expectConflict(t, "size/put-replace", false,
			seed(tm, 1, 1),
			func(tx *stm.Tx) { tm.Size(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 1, 99) },
		)
	}
	{ // size vs remove taking away an entry: conflict.
		tm := newIntMap()
		expectConflict(t, "size/remove-present", true,
			seed(tm, 1, 1, 2, 2),
			func(tx *stm.Tx) { tm.Size(tx) },
			func(tx *stm.Tx) { tm.Remove(tx, 2) },
		)
	}
	{ // size vs remove of an absent key: size unchanged, commute. (The
		// remover read key 9's absence, but the sizer never touched key
		// 9.)
		tm := newIntMap()
		expectConflict(t, "size/remove-absent", false,
			seed(tm, 1, 1),
			func(tx *stm.Tx) { tm.Size(tx) },
			func(tx *stm.Tx) { tm.Remove(tx, 9) },
		)
	}
	{ // hasNext==false vs put adding a new entry: the full enumeration
		// observed the size (Table 1: "if hasNext is false and put adds
		// a new entry").
		tm := newIntMap()
		expectConflict(t, "hasNextFalse/put-new-key", true,
			seed(tm, 1, 1),
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				for it.HasNext() {
					it.Next()
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 2, 2) },
		)
	}
	{ // iterator.next vs remove of a returned key: conflict (Table 1:
		// "remove takes away key in iterated range").
		tm := newIntMap()
		expectConflict(t, "iteratorNext/remove-returned-key", true,
			seed(tm, 1, 1),
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				it.Next() // returns key 1, the only key
			},
			func(tx *stm.Tx) { tm.Remove(tx, 1) },
		)
	}
	{ // put vs put to the same key: conflict (both write the key; one
		// must see the other).
		tm := newIntMap()
		expectConflict(t, "put/put-same-key", true,
			seed(tm),
			func(tx *stm.Tx) { tm.Put(tx, 5, 50) },
			func(tx *stm.Tx) { tm.Put(tx, 5, 55) },
		)
	}
	{ // put vs put to different keys: the paper's headline — both
		// change the size field, yet they commute.
		tm := newIntMap()
		expectConflict(t, "put/put-different-keys", false,
			seed(tm),
			func(tx *stm.Tx) { tm.Put(tx, 5, 50) },
			func(tx *stm.Tx) { tm.Put(tx, 6, 60) },
		)
	}
	{ // remove vs remove of the same key: conflict.
		tm := newIntMap()
		expectConflict(t, "remove/remove-same-key", true,
			seed(tm, 5, 50),
			func(tx *stm.Tx) { tm.Remove(tx, 5) },
			func(tx *stm.Tx) { tm.Remove(tx, 5) },
		)
	}
	{ // blind puts to the same key: §5.1's relaxation — no read, no
		// ordering requirement, both commit.
		tm := newIntMap()
		expectConflict(t, "putUnread/putUnread-same-key", false,
			seed(tm, 5, 1),
			func(tx *stm.Tx) { tm.PutUnread(tx, 5, 50) },
			func(tx *stm.Tx) { tm.PutUnread(tx, 5, 55) },
		)
	}
	{ // isEmpty (empty-transition lock) vs put on a non-empty map:
		// commute (§5.1: "these transactions should commute as long as
		// they add different keys").
		tm := newIntMap()
		expectConflict(t, "isEmpty/put-nonempty-map", false,
			seed(tm, 1, 1),
			func(tx *stm.Tx) {
				if tm.IsEmpty(tx) && tx.Attempt() == 0 {
					t.Error("seeded map empty")
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 2, 2) },
		)
	}
	{ // isEmpty vs first put into an empty map: emptiness changes,
		// conflict (§5.1: "should not commute because a serial ordering
		// would require that only one would find an empty map").
		tm := newIntMap()
		expectConflict(t, "isEmpty/put-into-empty-map", true,
			nil,
			func(tx *stm.Tx) {
				if !tm.IsEmpty(tx) && tx.Attempt() == 0 {
					t.Error("fresh map not empty")
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 1, 1) },
		)
	}
	{ // the §5.1 ablation: isEmpty via the size lock conflicts even on
		// a non-empty map.
		tm := newIntMap()
		tm.SetIsEmptyViaSize(true)
		expectConflict(t, "isEmptyViaSize/put-nonempty-map", true,
			seed(tm, 1, 1),
			func(tx *stm.Tx) { tm.IsEmpty(tx) },
			func(tx *stm.Tx) { tm.Put(tx, 2, 2) },
		)
	}
}

// sortedCell is one cell of a sorted-map conflict matrix: the keys to
// seed, the reader's operation, the committing writer's operation, and
// whether the reader must be aborted.
type sortedCell struct {
	name          string
	conflict      bool
	keys          []int
	first, second func(tm *TransactionalSortedMap[int, int], tx *stm.Tx)
}

// runSortedMatrix checks every cell on every stripe layout
// (sortedLayouts): the conflict abstraction is independent of how the
// key space is partitioned, so the verdicts must not depend on it.
func runSortedMatrix(t *testing.T, cells []sortedCell) {
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			for _, ly := range sortedLayouts {
				tm := ly.new()
				expectConflict(t, ly.name, c.conflict,
					func(tx *stm.Tx) {
						for _, k := range c.keys {
							tm.Put(tx, k, k)
						}
					},
					func(tx *stm.Tx) { c.first(tm, tx) },
					func(tx *stm.Tx) { c.second(tm, tx) })
			}
		})
	}
}

// TestTable4SortedMapConflictMatrix encodes the SortedMap-specific
// cells of Table 4 / locking rules of Table 5.
func TestTable4SortedMapConflictMatrix(t *testing.T) {
	type sm = *TransactionalSortedMap[int, int]
	drain := func(it *SortedIterator[int, int]) {
		for it.HasNext() {
			it.Next()
		}
	}
	runSortedMatrix(t, []sortedCell{
		// lastKey vs put of a new maximum: conflict.
		{"lastKey/put-new-max", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.LastKey(tx) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 30, 30) }},
		// lastKey vs put of an interior key: commute.
		{"lastKey/put-interior", false, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.LastKey(tx) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 15, 15) }},
		// lastKey vs remove of the maximum: conflict.
		{"lastKey/remove-max", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.LastKey(tx) },
			func(tm sm, tx *stm.Tx) { tm.Remove(tx, 20) }},
		// lastKey vs a value-only rewrite of the maximum: commute (Table
		// 5: last lock only — which key is last did not change).
		{"lastKey/rewrite-max", false, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.LastKey(tx) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 20, 99) }},
		// firstKey vs remove of the minimum: conflict.
		{"firstKey/remove-min", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.FirstKey(tx) },
			func(tm sm, tx *stm.Tx) { tm.Remove(tx, 10) }},
		// firstKey vs put of a larger key: commute.
		{"firstKey/put-larger", false, []int{10},
			func(tm sm, tx *stm.Tx) { tm.FirstKey(tx) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 20, 20) }},
		// firstKey vs a value-only rewrite of the minimum: commute.
		{"firstKey/rewrite-min", false, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.FirstKey(tx) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 10, 99) }},
		// iterator vs put of a new key inside the iterated range:
		// conflict (Table 4: "put adds key in iterated range"). The
		// iterator returned 10 and 20; 15 lands inside [_, 20].
		{"iterator/put-inside-iterated-range", true, []int{10, 20, 40},
			func(tm sm, tx *stm.Tx) {
				it := tm.Iterator(tx)
				it.Next() // 10
				it.Next() // 20
			},
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 15, 15) }},
		// iterator vs put beyond the iterated range: commute — the
		// iterator never observed that region.
		{"iterator/put-beyond-iterated-range", false, []int{10, 20, 40},
			func(tm sm, tx *stm.Tx) {
				it := tm.Iterator(tx)
				it.Next() // 10
				it.Next() // 20: iterated range is (-inf, 20]
			},
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 30, 30) }},
		// iterator vs remove of a key inside the iterated range: conflict.
		{"iterator/remove-inside-iterated-range", true, []int{10, 20, 40},
			func(tm sm, tx *stm.Tx) {
				it := tm.Iterator(tx)
				it.Next()
				it.Next()
			},
			func(tm sm, tx *stm.Tx) { tm.Remove(tx, 10) }},
		// subMap iterator vs put inside the view's iterated range.
		{"subMapIterator/put-inside-range", true, []int{10, 20, 30, 40},
			func(tm sm, tx *stm.Tx) {
				it := tm.SubMap(10, 35).Iterator(tx)
				it.Next() // 10
				it.Next() // 20: range [10, 20]
			},
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 15, 15) }},
		// subMap iterator vs put outside the view: commute.
		{"subMapIterator/put-outside-view", false, []int{10, 20, 30, 40},
			func(tm sm, tx *stm.Tx) {
				it := tm.SubMap(10, 35).Iterator(tx)
				it.Next()
				it.Next()
			},
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 50, 50) }},
		// exhausted subMap iterator pins its range to the view bound:
		// put inside the drained view conflicts even past the last
		// returned key.
		{"subMapIteratorExhausted/put-in-view-tail", true, []int{10, 20, 40},
			func(tm sm, tx *stm.Tx) { drain(tm.SubMap(10, 35).Iterator(tx)) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 30, 30) }},
		// tailMap hasNext==false vs put of a new last key: conflict
		// (Table 4: "hasNext is false and put adds new lastKey").
		{"tailMapHasNextFalse/put-new-last", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { drain(tm.TailMap(15).Iterator(tx)) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 30, 30) }},
		// full iteration to exhaustion vs put of a new last key: the
		// range reaching the top of the key space (Table 5's last lock)
		// fires.
		{"iteratorExhausted/put-new-last", true, []int{10},
			func(tm sm, tx *stm.Tx) { drain(tm.Iterator(tx)) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 99, 99) }},
	})
}

// TestTable7ChannelConflictMatrix encodes Table 7 / Table 8: the
// TransactionalQueue's reduced-isolation conflict rules.
func TestTable7ChannelConflictMatrix(t *testing.T) {
	{ // peek that returned null vs put: conflict ("if peek returned
		// null" x put "if now non-empty").
		q := newQueue()
		expectConflict(t, "peekNull/put", true,
			nil,
			func(tx *stm.Tx) {
				if _, ok := q.Peek(tx); ok && tx.Attempt() == 0 {
					t.Error("peek on empty queue succeeded")
				}
			},
			func(tx *stm.Tx) { q.Put(tx, 1) },
		)
	}
	{ // poll that returned null vs put: conflict.
		q := newQueue()
		expectConflict(t, "pollNull/put", true,
			nil,
			func(tx *stm.Tx) {
				if _, ok := q.Poll(tx); ok && tx.Attempt() == 0 {
					t.Error("poll on empty queue succeeded")
				}
			},
			func(tx *stm.Tx) { q.Put(tx, 1) },
		)
	}
	{ // peek that returned an element vs put: commute.
		q := newQueue()
		expectConflict(t, "peekNonNull/put", false,
			func(tx *stm.Tx) { q.Put(tx, 1) },
			func(tx *stm.Tx) {
				if _, ok := q.Peek(tx); !ok {
					t.Error("peek on non-empty queue failed")
				}
			},
			func(tx *stm.Tx) { q.Put(tx, 2) },
		)
	}
	{ // take vs take: no semantic conflict — each gets its own element
		// (Table 7: the take column and row are empty).
		q := newQueue()
		expectConflict(t, "take/take", false,
			func(tx *stm.Tx) { q.Put(tx, 1); q.Put(tx, 2) },
			func(tx *stm.Tx) {
				if _, ok := q.Poll(tx); !ok {
					t.Error("first poll failed")
				}
			},
			func(tx *stm.Tx) {
				if _, ok := q.Poll(tx); !ok {
					t.Error("second poll failed")
				}
			},
		)
	}
	{ // put vs put: commute.
		q := newQueue()
		expectConflict(t, "put/put", false,
			nil,
			func(tx *stm.Tx) { q.Put(tx, 1) },
			func(tx *stm.Tx) { q.Put(tx, 2) },
		)
	}
	{ // poll that returned an element vs put: commute (the queue was
		// non-empty; no emptiness was observed).
		q := newQueue()
		expectConflict(t, "pollNonNull/put", false,
			func(tx *stm.Tx) { q.Put(tx, 1) },
			func(tx *stm.Tx) {
				if _, ok := q.Poll(tx); !ok {
					t.Error("poll failed")
				}
			},
			func(tx *stm.Tx) { q.Put(tx, 2) },
		)
	}
}
