package core

import (
	"testing"

	"tcc/internal/stm"
)

func TestNavigableQueriesMergeBuffer(t *testing.T) {
	forEachSortedLayout(t, testNavigableQueriesMergeBuffer)
}

func testNavigableQueriesMergeBuffer(t *testing.T, tm *TransactionalSortedMap[int, int]) {
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		for _, k := range []int{10, 20, 30} {
			tm.Put(tx, k, k)
		}
	})
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 15, 15) // buffered addition
		tm.Remove(tx, 20)  // buffered removal
		cases := []struct {
			name string
			got  func() (int, bool)
			want int
			ok   bool
		}{
			{"ceiling-buffered-add", func() (int, bool) { return tm.CeilingKey(tx, 12) }, 15, true},
			{"ceiling-skips-buffered-removal", func() (int, bool) { return tm.CeilingKey(tx, 16) }, 30, true},
			{"ceiling-exact", func() (int, bool) { return tm.CeilingKey(tx, 15) }, 15, true},
			{"higher-exact-strict", func() (int, bool) { return tm.HigherKey(tx, 15) }, 30, true},
			{"higher-none", func() (int, bool) { return tm.HigherKey(tx, 30) }, 0, false},
			{"floor-buffered-add", func() (int, bool) { return tm.FloorKey(tx, 16) }, 15, true},
			{"floor-skips-buffered-removal", func() (int, bool) { return tm.FloorKey(tx, 25) }, 15, true},
			{"lower-strict", func() (int, bool) { return tm.LowerKey(tx, 15) }, 10, true},
			{"lower-none", func() (int, bool) { return tm.LowerKey(tx, 10) }, 0, false},
		}
		for _, c := range cases {
			got, ok := c.got()
			if ok != c.ok || (ok && got != c.want) {
				t.Errorf("%s = (%d,%v), want (%d,%v)", c.name, got, ok, c.want, c.ok)
			}
		}
	})
}

// TestNavigableConflictMatrix extends the paper's Table 4 methodology
// to the NavigableMap queries: a navigation query conflicts exactly
// with writes that change its answer.
func TestNavigableConflictMatrix(t *testing.T) {
	type sm = *TransactionalSortedMap[int, int]
	runSortedMatrix(t, []sortedCell{
		// ceiling(5)=10 vs put(7): 7 lands in the observed gap [5,10].
		{"ceiling/put-in-gap", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.CeilingKey(tx, 5) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 7, 7) }},
		// ceiling(5)=10 vs remove(10): the result key disappears.
		{"ceiling/remove-result", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.CeilingKey(tx, 5) },
			func(tm sm, tx *stm.Tx) { tm.Remove(tx, 10) }},
		// ceiling(5)=10 vs put(15): beyond the observed gap — commute.
		{"ceiling/put-beyond-result", false, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.CeilingKey(tx, 5) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 15, 15) }},
		// higherKey(10)=20 vs put(10): the strict probe endpoint is not
		// observed — commute.
		{"higher/put-at-probe", false, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.HigherKey(tx, 10) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 10, 99) }},
		// ceilingKey(10)=10 vs put(10): the inclusive probe IS the result
		// — its value writer conflicts via the key lock.
		{"ceiling/put-at-result", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.CeilingKey(tx, 10) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 10, 99) }},
		// ceiling with no result observed the empty tail: a later insert
		// there conflicts.
		{"ceiling-none/put-in-tail", true, []int{10},
			func(tm sm, tx *stm.Tx) {
				if _, ok := tm.CeilingKey(tx, 50); ok && tx.Attempt() == 0 {
					t.Error("expected no ceiling above 50")
				}
			},
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 70, 70) }},
		// floor(25)=20 vs remove(20): conflict.
		{"floor/remove-result", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.FloorKey(tx, 25) },
			func(tm sm, tx *stm.Tx) { tm.Remove(tx, 20) }},
		// floor(25)=20 vs put(22): in the observed gap [20,25] — conflict.
		{"floor/put-in-gap", true, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.FloorKey(tx, 25) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 22, 22) }},
		// floor(25)=20 vs put(5): below the observed gap — commute.
		{"floor/put-below-gap", false, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.FloorKey(tx, 25) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 5, 5) }},
		// lowerKey(20)=10 vs put(20): strict bound — commute.
		{"lower/put-at-probe", false, []int{10, 20},
			func(tm sm, tx *stm.Tx) { tm.LowerKey(tx, 20) },
			func(tm sm, tx *stm.Tx) { tm.Put(tx, 20, 99) }},
	})
}

func TestNavigableLocks(t *testing.T) {
	tm := newSorted()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		tm.Put(tx, 10, 10)
		tm.Put(tx, 30, 30)
	})
	atomically(t, th, func(tx *stm.Tx) {
		if r, ok := tm.CeilingKey(tx, 5); !ok || r != 10 {
			t.Fatalf("ceiling = (%d,%v)", r, ok)
		}
		// Key lock on the result, range lock over the gap.
		st := snapshotLocks(&tm.TransactionalMap, tx, []int{10, 30})
		if len(st.keys) != 1 || st.keys[0] != 10 {
			t.Fatalf("key locks = %v, want [10]", st.keys)
		}
		if st.rangeLocks != 1 {
			t.Fatalf("range locks = %d, want 1", st.rangeLocks)
		}
		if !coversAny(tm, tx, 7) {
			t.Error("gap [5,10] not covered")
		}
		if coversAny(tm, tx, 20) {
			t.Error("range extends beyond the result")
		}
	})
}
