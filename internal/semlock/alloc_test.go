package semlock

import (
	"testing"

	"tcc/internal/stm"
)

// The violation-sweep guardrails: once a table's recycled sweep buffer
// has grown to capacity, a sweep that violates its victims allocates
// nothing. Before the recycling fix each sweep built a fresh []Owner (and
// sort.Slice boxed it), and before Reason each successful Violate
// published a fresh {Violated, reason}, so a hot writer committing against
// N readers paid O(victims) garbage on the commit critical path.
//
// Every measured sweep must find Active victims: a Violate on an owner
// that is already Violated returns before publishing anything, so a sweep
// over the same owners twice measures only the early return. Each run
// therefore takes fresh owners from a slice built before the measurement
// and checks that the sweep landed on all of them.

const (
	sweepRuns    = 100
	sweepVictims = 8
)

// freshOwners returns one batch of Active owners per measured run, plus
// AllocsPerRun's warm-up run and the explicit one before it.
func freshOwners() [][]Owner {
	batches := make([][]Owner, sweepRuns+2)
	for i := range batches {
		batches[i] = make([]Owner, sweepVictims)
		for j := range batches[i] {
			batches[i][j] = activeHandle()
		}
	}
	return batches
}

func TestOwnerSetViolateOthersNoAlloc(t *testing.T) {
	s := NewOwnerSet()
	self, reason := activeHandle(), stm.NewReason("size conflict")
	s.Lock(self)
	batches := freshOwners()
	run := func() {
		victims := batches[0]
		batches = batches[1:]
		for _, o := range victims {
			s.Lock(o)
		}
		if n := s.ViolateOthers(self, reason); n != sweepVictims {
			t.Fatalf("sweep violated %d owners, want %d", n, sweepVictims)
		}
		for _, o := range victims {
			s.Unlock(o)
		}
	}
	run() // grow the map and the sweep buffer once
	if n := testing.AllocsPerRun(sweepRuns, run); n != 0 {
		t.Fatalf("OwnerSet.ViolateOthers allocates %v per sweep, want 0", n)
	}
}

func TestKeyTableViolateOthersNoAlloc(t *testing.T) {
	kt := NewKeyTable[int]()
	self, reason := activeHandle(), stm.NewReason("key conflict")
	batches := freshOwners()
	run := func() {
		victims := batches[0]
		batches = batches[1:]
		kt.Lock(7, self)
		for _, o := range victims {
			kt.Lock(7, o)
		}
		if n := kt.Violate(7, self, reason); n != sweepVictims {
			t.Fatalf("sweep violated %d owners, want %d", n, sweepVictims)
		}
		for _, o := range victims {
			kt.Unlock(7, o)
		}
		kt.Unlock(7, self) // drops the entry: its overflow array is kept
	}
	run()
	if n := testing.AllocsPerRun(sweepRuns, run); n != 0 {
		t.Fatalf("KeyTable.Violate allocates %v per sweep, want 0", n)
	}
}

// TestKeyTableLockUnlockNoAlloc: a key's owners live by value in the
// table map, the first one inline, so the uncontended read allocates
// nothing once the map has its buckets; a second reader of the same key
// takes an overflow array the table kept from an earlier shared key.
func TestKeyTableLockUnlockNoAlloc(t *testing.T) {
	kt := NewKeyTable[int]()
	a, b := activeHandle(), activeHandle()
	k := 0
	alone := func() {
		k++
		kt.Lock(k, a)
		kt.Unlock(k, a)
	}
	shared := func() {
		k++
		kt.Lock(k, a)
		kt.Lock(k, b)
		kt.Unlock(k, a)
		kt.Unlock(k, b)
	}
	alone()
	shared()
	if n := testing.AllocsPerRun(1000, alone); n != 0 {
		t.Fatalf("uncontended Lock/Unlock allocates %v per pair, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, shared); n != 0 {
		t.Fatalf("two readers of one key allocate %v per Lock/Unlock pair, want 0", n)
	}
}

func TestRangeTableViolateCoveringNoAlloc(t *testing.T) {
	rt := NewRangeTable[int](func(a, b int) int { return a - b })
	self, reason := activeHandle(), stm.NewReason("range conflict")
	lo, hi := 0, 100
	batches := freshOwners()
	entries := make([]RangeEntry[int], sweepVictims)
	run := func() {
		victims := batches[0]
		batches = batches[1:]
		for i, o := range victims {
			entries[i] = RangeEntry[int]{Lo: &lo, Hi: &hi, Owner: o}
			rt.Add(&entries[i])
		}
		if n := rt.ViolateCovering(50, self, reason); n != sweepVictims {
			t.Fatalf("sweep violated %d owners, want %d", n, sweepVictims)
		}
		for i := range entries {
			rt.Remove(&entries[i])
		}
	}
	run()
	if n := testing.AllocsPerRun(sweepRuns, run); n != 0 {
		t.Fatalf("RangeTable.ViolateCovering allocates %v per sweep, want 0", n)
	}
}
