package semlock

import "testing"

// The violation-sweep guardrails: once a table's recycled sweep buffer
// has grown to capacity, ViolateOthers / ViolateCovering must not
// allocate. Before the recycling fix each sweep built a fresh []Owner
// (and sort.Slice boxed it), so a hot writer committing against N
// readers paid O(sweeps) garbage on the commit critical path.

func TestOwnerSetViolateOthersNoAlloc(t *testing.T) {
	s := NewOwnerSet()
	self := activeHandle()
	s.Lock(self)
	for i := 0; i < 8; i++ {
		s.Lock(activeHandle())
	}
	s.ViolateOthers(self, "warm") // grow the sweep buffer once
	if n := testing.AllocsPerRun(100, func() {
		s.ViolateOthers(self, "size conflict")
	}); n != 0 {
		t.Fatalf("OwnerSet.ViolateOthers allocates %v per sweep, want 0", n)
	}
}

func TestKeyTableViolateOthersNoAlloc(t *testing.T) {
	kt := NewKeyTable[int]()
	self := activeHandle()
	kt.Lock(7, self)
	for i := 0; i < 8; i++ {
		kt.Lock(7, activeHandle())
	}
	kt.ViolateOthers(7, self, "warm")
	if n := testing.AllocsPerRun(100, func() {
		kt.ViolateOthers(7, self, "key conflict")
	}); n != 0 {
		t.Fatalf("KeyTable.ViolateOthers allocates %v per sweep, want 0", n)
	}
}

// TestKeyTableLockUnlockNoAlloc: a key's owners live by value in the
// table map, the first one inline, so the uncontended read allocates
// nothing once the map has its buckets. (A second concurrent reader of
// the same key allocates the overflow slice; that path is not budgeted.)
func TestKeyTableLockUnlockNoAlloc(t *testing.T) {
	kt := NewKeyTable[int]()
	a := activeHandle()
	k := 0
	alone := func() {
		k++
		kt.Lock(k, a)
		kt.Unlock(k, a)
	}
	alone()
	if n := testing.AllocsPerRun(1000, alone); n != 0 {
		t.Fatalf("uncontended Lock/Unlock allocates %v per pair, want 0", n)
	}
}

func TestRangeTableViolateCoveringNoAlloc(t *testing.T) {
	rt := NewRangeTable[int](func(a, b int) int { return a - b })
	self := activeHandle()
	for i := 0; i < 8; i++ {
		lo, hi := 0, 100
		rt.Add(&RangeEntry[int]{Lo: &lo, Hi: &hi, Owner: activeHandle()})
	}
	rt.ViolateCovering(50, self, "warm")
	if n := testing.AllocsPerRun(100, func() {
		rt.ViolateCovering(50, self, "range conflict")
	}); n != 0 {
		t.Fatalf("RangeTable.ViolateCovering allocates %v per sweep, want 0", n)
	}
}
