package semlock

import (
	"slices"
	"testing"

	"tcc/internal/stm"
)

// activeHandle returns a Handle in the Active state, as lock owners are
// in practice. Handles are created by running transactions; for table
// tests a zero Handle is Active by construction.
func activeHandle() Owner { return &stm.Handle{} }

func TestOwnerSetLockUnlock(t *testing.T) {
	s := NewOwnerSet()
	a, b := activeHandle(), activeHandle()
	s.Lock(a)
	s.Lock(a) // idempotent
	s.Lock(b)
	if !s.Holds(a) || !s.Holds(b) || s.Len() != 2 {
		t.Fatalf("holders wrong: len=%d", s.Len())
	}
	s.Unlock(a)
	if s.Holds(a) || !s.Holds(b) {
		t.Fatal("unlock removed wrong owner")
	}
	s.Unlock(a) // no-op
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
}

func TestOwnerSetViolateOthers(t *testing.T) {
	s := NewOwnerSet()
	self, other1, other2 := activeHandle(), activeHandle(), activeHandle()
	s.Lock(self)
	s.Lock(other1)
	s.Lock(other2)
	n := s.ViolateOthers(self, stm.NewReason("size conflict"))
	if n != 2 {
		t.Fatalf("violated %d, want 2", n)
	}
	if self.Status() != stm.StatusActive {
		t.Fatal("self was violated")
	}
	if other1.Status() != stm.StatusViolated || other2.Status() != stm.StatusViolated {
		t.Fatal("others not violated")
	}
	if other1.ViolationReason() != "size conflict" {
		t.Fatalf("reason = %q", other1.ViolationReason())
	}
}

func TestKeyTableBasics(t *testing.T) {
	kt := NewKeyTable[string]()
	a, b := activeHandle(), activeHandle()
	kt.Lock("x", a)
	kt.Lock("x", b)
	kt.Lock("y", a)
	if !kt.Holds("x", a) || !kt.Holds("x", b) || !kt.Holds("y", a) {
		t.Fatal("locks not recorded")
	}
	if kt.Holds("y", b) {
		t.Fatal("phantom lock")
	}
	kt.Unlock("x", a)
	if kt.Holds("x", a) || !kt.Holds("x", b) {
		t.Fatal("unlock removed wrong lock")
	}
	kt.Unlock("x", b)
	if kt.Locked("x") {
		t.Fatal("key still locked after all unlocks")
	}
	if len(kt.lockers) != 1 {
		t.Fatalf("empty key entries not reclaimed: %d", len(kt.lockers))
	}
	kt.Unlock("z", a) // unlocking unknown key is a no-op
}

func TestKeyTableViolateOthersIsPerKey(t *testing.T) {
	kt := NewKeyTable[int]()
	self, other := activeHandle(), activeHandle()
	bystander := activeHandle()
	kt.Lock(1, self)
	kt.Lock(1, other)
	kt.Lock(2, bystander)
	if n := kt.ViolateOthers(1, self, "key conflict"); n != 1 {
		t.Fatalf("violated %d, want 1", n)
	}
	if bystander.Status() != stm.StatusActive {
		t.Fatal("reader of a different key was violated")
	}
	if other.Status() != stm.StatusViolated {
		t.Fatal("conflicting reader not violated")
	}
}

// committedHandles returns the handles of n transactions run one after
// another, each on a thread of its own — every attempt on a thread runs
// under the thread's one handle, so n distinct handles need n threads —
// and checks that they are distinct and their ids ascend in slice order.
func committedHandles(t *testing.T, n int) []Owner {
	t.Helper()
	hs := make([]Owner, n)
	for i := range hs {
		th := stm.NewThread(&stm.RealClock{}, int64(i+1))
		if err := th.Atomic(func(tx *stm.Tx) error {
			hs[i] = tx.Handle()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i > 0 && (slices.Contains(hs[:i], hs[i]) || hs[i].ID() <= hs[i-1].ID()) {
			t.Fatalf("handle %d (id %d) repeats or does not follow id %d", i, hs[i].ID(), hs[i-1].ID())
		}
	}
	return hs
}

// TestKeyTableSharedKey walks one key's reader set through the inline
// owner and the overflow slice: three readers, all violated (in
// ascending handle-id order, whatever order they locked in), the inline
// owner leaving while overflow owners remain, and the entry dropped with
// the last of them.
func TestKeyTableSharedKey(t *testing.T) {
	kt := NewKeyTable[int]()
	a, b, c, self := activeHandle(), activeHandle(), activeHandle(), activeHandle()
	for _, o := range []Owner{a, b, c, b, a} { // re-locking is idempotent
		kt.Lock(7, o)
	}
	if e := kt.lockers[7]; e.first != a || len(e.more) != 2 {
		t.Fatalf("entry = first %v + %d overflow, want a + 2", e.first == a, len(e.more))
	}
	if n := kt.ViolateOthers(7, self, "key conflict"); n != 3 {
		t.Fatalf("violated %d, want 3", n)
	}
	for i, o := range []Owner{a, b, c} {
		if o.Status() != stm.StatusViolated || o.ViolationReason() != "key conflict" {
			t.Fatalf("owner %d: status %v, reason %q", i, o.Status(), o.ViolationReason())
		}
	}
	kt.Unlock(7, self) // a non-holder: no-op
	kt.Unlock(7, a)    // the inline owner, with two overflow owners left
	if kt.Holds(7, a) || !kt.Holds(7, b) || !kt.Holds(7, c) || !kt.Locked(7) {
		t.Fatal("unlocking the inline owner disturbed the overflow owners")
	}
	kt.Unlock(7, a) // again: no-op
	kt.Unlock(7, b) // now an overflow owner (c was promoted)
	if kt.Holds(7, b) || !kt.Holds(7, c) {
		t.Fatal("unlocking an overflow owner removed the wrong one")
	}
	kt.Unlock(7, c)
	if kt.Locked(7) || len(kt.lockers) != 0 {
		t.Fatalf("entry not dropped with its last owner: %d left", len(kt.lockers))
	}
	if kt.ViolateOthers(7, self, "key conflict") != 0 {
		t.Fatal("sweep of an unlocked key landed a violation")
	}

	hs := committedHandles(t, 3)
	kt.Lock(9, hs[2])
	kt.Lock(9, hs[0])
	kt.Lock(9, hs[1])
	got := kt.lockers[9].ordered(nil)
	for i, o := range got {
		if o != hs[i] {
			t.Fatalf("sweep order: position %d holds handle id %d, want %d", i, o.ID(), hs[i].ID())
		}
	}
}

func TestViolateSkipsSerializedOwners(t *testing.T) {
	s := NewOwnerSet()
	self, done := activeHandle(), activeHandle()
	// done has already committed: its locks are stale-but-harmless
	// until its release handler runs; it must not count as a conflict.
	if !done.Violate(stm.NewReason("warm up to active first")) {
		t.Fatal("setup violate failed")
	}
	s.Lock(self)
	s.Lock(done)
	// done is now Violated; a second violate reports true (it will
	// abort), so use a Prepared/Committed-like owner instead: build one
	// by committing a real transaction. Its thread runs nothing after,
	// so the handle keeps naming the committed attempt.
	th := stm.NewThread(&stm.RealClock{}, 1)
	var committed Owner
	if err := th.Atomic(func(tx *stm.Tx) error {
		committed = tx.Handle()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Lock(committed)
	n := s.ViolateOthers(self, stm.NewReason("conflict"))
	// 'done' (violated) counts, 'committed' must not.
	if n != 1 {
		t.Fatalf("violated %d, want 1", n)
	}
	if committed.Status() != stm.StatusCommitted {
		t.Fatal("committed owner state changed")
	}
}

func cmpInt(a, b int) int { return a - b }

func TestRangeTableCovers(t *testing.T) {
	rt := NewRangeTable[int](cmpInt)
	lo, hi := 10, 20
	cases := []struct {
		name string
		e    *RangeEntry[int]
		k    int
		want bool
	}{
		{"inside", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 15, true},
		{"at-lo", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 10, true},
		{"at-hi-incl", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 20, true},
		{"at-hi-excl", &RangeEntry[int]{Lo: &lo, Hi: &hi, HiExcl: true}, 20, false},
		{"below", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 9, false},
		{"above", &RangeEntry[int]{Lo: &lo, Hi: &hi}, 21, false},
		{"unbounded-lo", &RangeEntry[int]{Hi: &hi}, -100, true},
		{"unbounded-hi", &RangeEntry[int]{Lo: &lo}, 1000, true},
		{"unbounded-both", &RangeEntry[int]{}, 0, true},
	}
	for _, c := range cases {
		if got := rt.Covers(c.e, c.k); got != c.want {
			t.Errorf("%s: Covers(%d) = %v, want %v", c.name, c.k, got, c.want)
		}
	}
}

func TestRangeTableViolateCovering(t *testing.T) {
	rt := NewRangeTable[int](cmpInt)
	self, iterA, iterB := activeHandle(), activeHandle(), activeHandle()
	lo1, hi1 := 0, 10
	lo2, hi2 := 50, 60
	ea := &RangeEntry[int]{Lo: &lo1, Hi: &hi1, Owner: iterA}
	eb := &RangeEntry[int]{Lo: &lo2, Hi: &hi2, Owner: iterB}
	es := &RangeEntry[int]{Lo: &lo1, Hi: &hi2, Owner: self}
	rt.Add(ea)
	rt.Add(eb)
	rt.Add(es)
	if n := rt.ViolateCovering(5, self, stm.NewReason("range conflict")); n != 1 {
		t.Fatalf("violated %d, want 1", n)
	}
	if iterA.Status() != stm.StatusViolated {
		t.Fatal("covering iterator not violated")
	}
	if iterB.Status() != stm.StatusViolated {
		// 5 is outside [50,60]
		t.Log("ok: iterB untouched")
	}
	if iterB.Status() == stm.StatusViolated {
		t.Fatal("non-covering iterator violated")
	}
	rt.Remove(ea)
	if rt.Len() != 2 {
		t.Fatalf("len = %d, want 2", rt.Len())
	}
}

func TestRangeEntryWideningInPlace(t *testing.T) {
	rt := NewRangeTable[int](cmpInt)
	owner, self := activeHandle(), activeHandle()
	lo := 0
	e := &RangeEntry[int]{Lo: &lo, Owner: owner}
	hi := 5
	e.Hi = &hi
	rt.Add(e)
	if rt.ViolateCovering(7, self, stm.NewReason("x")) != 0 {
		t.Fatal("7 should be outside [0,5]")
	}
	// Iterator advances: widen to 10.
	hi2 := 10
	e.Hi = &hi2
	if rt.ViolateCovering(7, self, stm.NewReason("x")) != 1 {
		t.Fatal("widened range should cover 7")
	}
}

func TestRangeTableExclusiveLowerBound(t *testing.T) {
	rt := NewRangeTable[int](cmpInt)
	lo, hi := 10, 20
	strict := &RangeEntry[int]{Lo: &lo, LoExcl: true, Hi: &hi}
	if rt.Covers(strict, 10) {
		t.Fatal("exclusive lower bound covered its endpoint")
	}
	if !rt.Covers(strict, 11) || !rt.Covers(strict, 20) {
		t.Fatal("interior/upper coverage wrong")
	}
	inclusive := &RangeEntry[int]{Lo: &lo, Hi: &hi}
	if !rt.Covers(inclusive, 10) {
		t.Fatal("inclusive lower bound missed its endpoint")
	}
}
