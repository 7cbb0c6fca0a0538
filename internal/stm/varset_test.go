package stm

import (
	"fmt"
	"testing"

	"tcc/internal/obs"
)

// cores returns n fresh variable cores.
func cores(n int) []*varCore {
	cs := make([]*varCore, n)
	for i := range cs {
		cs[i] = NewVar(i).core
	}
	return cs
}

// checkSet compares s with the plain-map model want and the expected
// first-access order.
func checkSet(t *testing.T, s *varSet[int], want map[*varCore]int, order []*varCore, absent *varCore) {
	t.Helper()
	if len(s.entries) != len(order) {
		t.Fatalf("len = %d, want %d", len(s.entries), len(order))
	}
	for i, c := range order {
		if s.entries[i].c != c {
			t.Fatalf("entry %d is var#%d, want var#%d (first-access order)", i, s.entries[i].c.id, c.id)
		}
		if got, ok := s.get(c); !ok || got != want[c] {
			t.Fatalf("get(var#%d) = %d, %v; want %d, true", c.id, got, ok, want[c])
		}
	}
	if _, ok := s.get(absent); ok {
		t.Fatal("get of a var never put reported an entry")
	}
	if indexed := len(s.entries) > indexAt; indexed && len(s.index) != len(s.entries) {
		t.Fatalf("index holds %d entries, set %d", len(s.index), len(s.entries))
	}
}

func TestVarSetAcrossIndexThreshold(t *testing.T) {
	cs := cores(indexAt + 4)
	absent := NewVar(0).core
	var s varSet[int]
	for round := 0; round < 2; round++ {
		want := map[*varCore]int{}
		var order []*varCore
		for i, c := range cs {
			s.put(c, i+100*round)
			want[c] = i + 100*round
			order = append(order, c)
			checkSet(t, &s, want, order, absent)
			// Overwrite every entry so far, crossing 8 → 9 on the way:
			// the value changes, the order does not.
			for j, d := range order {
				s.put(d, j*1000+i)
				want[d] = j*1000 + i
			}
			checkSet(t, &s, want, order, absent)
		}
		if s.index == nil {
			t.Fatalf("round %d: no index past %d entries", round, indexAt)
		}
		// reset keeps the slice and the (cleared) index for the next
		// round, which must not find the previous round's entries.
		s.reset()
		if len(s.entries) != 0 || len(s.index) != 0 || s.index == nil {
			t.Fatalf("after reset: %d entries, index %v", len(s.entries), s.index)
		}
		checkSet(t, &s, nil, nil, cs[0])
		// Reverse the order for the second round so stale positions
		// would be caught.
		for i, j := 0, len(cs)-1; i < j; i, j = i+1, j-1 {
			cs[i], cs[j] = cs[j], cs[i]
		}
	}
	// Regrowing a recycled set past the threshold allocates nothing.
	if n := testing.AllocsPerRun(20, func() {
		for i, c := range cs {
			s.put(c, i)
		}
		s.reset()
	}); n != 0 {
		t.Fatalf("regrow after reset: %v allocs, want 0", n)
	}
}

func TestMergeIntoParentReadWins(t *testing.T) {
	cs := cores(indexAt + 6)
	older := make([]*valBox, len(cs))
	newer := make([]*valBox, len(cs))
	for i := range cs {
		older[i], newer[i] = &valBox{val: i, ver: 1}, &valBox{val: i, ver: 2}
	}
	// The parent read cs[0..5]; the child read cs[3..] — more than
	// indexAt of them — so cs[3..5] were read by both.
	parent, child := &level{}, &level{}
	for i := 0; i < 6; i++ {
		parent.reads.put(cs[i], older[i])
	}
	for i := 3; i < len(cs); i++ {
		child.reads.put(cs[i], newer[i])
	}
	child.writes.put(cs[0], "child")
	parent.writes.put(cs[0], "parent")
	child.mergeInto(parent)

	if len(parent.reads.entries) != len(cs) {
		t.Fatalf("parent has %d reads, want %d", len(parent.reads.entries), len(cs))
	}
	for i, e := range parent.reads.entries {
		if e.c != cs[i] {
			t.Fatalf("read %d is var#%d, want var#%d", i, e.c.id, cs[i].id)
		}
		want := newer[i]
		if i < 6 {
			want = older[i]
		}
		if got, _ := parent.reads.get(cs[i]); got != want || e.val != want {
			t.Fatalf("read of var %d: ver %d, want %d", i, got.ver, want.ver)
		}
	}
	if got, _ := parent.writes.get(cs[0]); got != "child" {
		t.Fatalf("merged write = %v, want the child's", got)
	}
}

// TestAbortAttributionFollowsAccessOrder: when several recorded reads
// are stale, the abort is blamed on the first of them in access order,
// every time — also past the index threshold.
func TestAbortAttributionFollowsAccessOrder(t *testing.T) {
	sink := withSink(t)
	for _, proto := range Protocols() {
		for run := 0; run < 60; run++ {
			vs := make([]*Var[int], 13)
			for i := range vs {
				vs[i] = NewVar(0).SetLabel(fmt.Sprintf("v%d", i))
			}
			reader, writer := protoThread(t, proto, 1), protoThread(t, proto, 2)
			sink.events = sink.events[:0]
			MustAtomicT(t, reader, func(tx *Tx) error {
				for _, v := range vs[:12] {
					_ = v.Get(tx)
				}
				if tx.Attempt() == 0 {
					MustAtomicT(t, writer, func(w *Tx) error {
						for _, v := range vs[9:] {
							v.Set(w, 1)
						}
						return nil
					})
				}
				_ = vs[12].Get(tx)
				return nil
			})
			abort := sink.find(obs.KindTxAbort)
			if abort == nil || abort.Where != "v9" {
				t.Fatalf("%s run %d: abort = %+v, want one attributed to v9", proto, run, abort)
			}
		}
	}
}
