// Package semlock implements the semantic lock tables of the paper's
// Tables 2, 5 and 8: key locks, size/empty/endpoint locks, and key-range
// locks, each mapping abstract state to the set of top-level
// transactions that have read it.
//
// Read operations take locks while executing (inside the collection's
// open-nested critical section); write operations detect conflicts at
// commit time by violating every other holder of the abstract state
// they change. The tables carry no internal synchronization: each
// transactional collection instance guards its tables with the same
// short critical section that protects the wrapped structure, which is
// this implementation's stand-in for the paper's low-level open-nested
// memory transactions (DESIGN.md §4, substitution 3).
package semlock

import (
	"cmp"
	"slices"

	"tcc/internal/stm"
)

// Owner identifies a lock-holding top-level transaction; violating an
// owner aborts that transaction (paper §4, program-directed abort).
type Owner = *stm.Handle

// orderedOwners copies the owners in set into buf sorted ascending by
// Handle.ID — the canonical violation order. Go map iteration would
// randomize the order in which victims are violated, and with it the
// event order of every trace taken under contention; sorting by the
// process-global handle id keeps deterministic-replay runs
// byte-identical. Id 0 — a snapshot attempt's, which never reaches a
// table, or a handle made outside a transaction (tests) — sorts first, in
// unspecified relative order.
func orderedOwners(buf []Owner, set map[Owner]struct{}) []Owner {
	for o := range set {
		buf = append(buf, o)
	}
	sortOwners(buf)
	return buf
}

// sortOwners orders buf ascending by Handle.ID, without allocating.
func sortOwners(buf []Owner) {
	slices.SortFunc(buf, func(a, b Owner) int { return cmp.Compare(a.ID(), b.ID()) })
}

// recycleSweep clears a sweep buffer for reuse: the Owner pointers are
// dropped so a recycled buffer does not pin dead transaction handles,
// but the backing array is kept — the same recycling discipline as the
// STM's level and commit scratch pools. Each table owns one sweep
// buffer; the collection's critical section that guards the table also
// serializes the sweeps, so a single buffer per table suffices.
func recycleSweep(buf []Owner) []Owner {
	for i := range buf {
		buf[i] = nil
	}
	return buf[:0]
}

// OwnerSet is a single abstract lock — the size lock, the empty lock,
// or a first/last endpoint lock — held by any number of readers.
type OwnerSet struct {
	owners map[Owner]struct{}
	sweep  []Owner // recycled violation-sweep scratch (see recycleSweep)
}

// NewOwnerSet creates an empty lock.
func NewOwnerSet() *OwnerSet {
	return &OwnerSet{owners: make(map[Owner]struct{})}
}

// Lock records o as a holder; re-locking is idempotent.
func (s *OwnerSet) Lock(o Owner) { s.owners[o] = struct{}{} }

// Unlock removes o; unlocking a non-holder is a no-op.
func (s *OwnerSet) Unlock(o Owner) { delete(s.owners, o) }

// Holds reports whether o holds the lock.
func (s *OwnerSet) Holds(o Owner) bool {
	_, ok := s.owners[o]
	return ok
}

// Len returns the number of holders.
func (s *OwnerSet) Len() int { return len(s.owners) }

// ViolateOthers aborts every holder other than self for reason — in
// ascending handle-id order, for deterministic traces — and returns how
// many Violate calls actually landed on still-active transactions.
func (s *OwnerSet) ViolateOthers(self Owner, reason *stm.Reason) int {
	n := 0
	s.sweep = orderedOwners(s.sweep, s.owners)
	for _, o := range s.sweep {
		if o == self {
			continue
		}
		if o.Violate(reason) {
			n++
		}
	}
	s.sweep = recycleSweep(s.sweep)
	return n
}

// keyOwners is one key's reader set, stored by value in the table map:
// the common single reader lives in first and costs no allocation; any
// further readers go to more, whose array the table takes back when the
// entry is dropped (see KeyTable.spare). first is non-nil for as long as
// the entry exists.
type keyOwners struct {
	first Owner
	more  []Owner
}

// KeyTable is the key2lockers table of paper Table 3: for each key, the
// set of transactions that have read that key's mapping (or its
// absence).
type KeyTable[K comparable] struct {
	lockers map[K]keyOwners
	sweep   []Owner // recycled violation-sweep scratch (see recycleSweep)
	// spare holds up to maxSpareOverflows emptied overflow arrays, so a
	// key that several transactions read at once allocates nothing either.
	spare [][]Owner
}

// maxSpareOverflows bounds KeyTable.spare: one array per key that is
// shared at a time, and few keys are.
const maxSpareOverflows = 4

// NewKeyTable creates an empty table.
func NewKeyTable[K comparable]() *KeyTable[K] {
	return &KeyTable[K]{lockers: make(map[K]keyOwners)}
}

// holds reports whether o is one of e's owners.
func (e keyOwners) holds(o Owner) bool {
	return e.first == o || slices.Contains(e.more, o)
}

// ordered is orderedOwners for a key's reader set.
func (e keyOwners) ordered(buf []Owner) []Owner {
	buf = append(append(buf, e.first), e.more...)
	sortOwners(buf)
	return buf
}

// Lock records o as a reader of key k; re-locking is idempotent.
func (t *KeyTable[K]) Lock(k K, o Owner) {
	e, ok := t.lockers[k]
	switch {
	case !ok:
		e.first = o
	case e.holds(o):
		return
	default:
		if e.more == nil {
			if n := len(t.spare) - 1; n >= 0 {
				e.more = t.spare[n]
				t.spare[n] = nil
				t.spare = t.spare[:n]
			}
		}
		e.more = append(e.more, o)
	}
	t.lockers[k] = e
}

// Unlock removes o as a reader of k, dropping empty entries so the
// table does not grow with dead keys; unlocking a non-holder is a no-op.
func (t *KeyTable[K]) Unlock(k K, o Owner) {
	e, ok := t.lockers[k]
	if !ok {
		return
	}
	last := len(e.more) - 1
	if e.first == o {
		if last < 0 {
			delete(t.lockers, k)
			if e.more != nil && len(t.spare) < maxSpareOverflows {
				t.spare = append(t.spare, e.more)
			}
			return
		}
		// Promote an overflow owner so first stays occupied.
		e.first = e.more[last]
	} else {
		i := slices.Index(e.more, o)
		if i < 0 {
			return
		}
		e.more[i] = e.more[last]
	}
	e.more[last] = nil
	e.more = e.more[:last]
	t.lockers[k] = e
}

// Holds reports whether o holds a lock on k.
func (t *KeyTable[K]) Holds(k K, o Owner) bool {
	e, ok := t.lockers[k]
	return ok && e.holds(o)
}

// Locked reports whether any transaction holds a lock on k.
func (t *KeyTable[K]) Locked(k K) bool {
	_, ok := t.lockers[k]
	return ok
}

// Violate aborts every reader of k other than self for reason, in
// ascending handle-id order (see orderedOwners).
func (t *KeyTable[K]) Violate(k K, self Owner, reason *stm.Reason) int {
	return t.violate(k, self, reason, "")
}

// ViolateOthers is Violate for a caller that has the reason only as text:
// the Reason is built when the sweep finds its first victim, so a sweep
// that finds none allocates nothing.
func (t *KeyTable[K]) ViolateOthers(k K, self Owner, reason string) int {
	return t.violate(k, self, nil, reason)
}

// violate is Violate and ViolateOthers: r, or one built from text.
func (t *KeyTable[K]) violate(k K, self Owner, r *stm.Reason, text string) int {
	e, ok := t.lockers[k]
	if !ok {
		return 0
	}
	n := 0
	t.sweep = e.ordered(t.sweep)
	for _, o := range t.sweep {
		if o == self {
			continue
		}
		if r == nil {
			r = stm.NewReason(text)
		}
		if o.Violate(r) {
			n++
		}
	}
	t.sweep = recycleSweep(t.sweep)
	return n
}

// RangeEntry is one key-range lock, typically owned by an iterator or a
// navigation query: the interval of keys whose membership the owner has
// observed. Lo and Hi are nil when unbounded; Lo is inclusive unless
// LoExcl is set (a HigherKey query's strict bound), Hi is inclusive
// unless HiExcl is set (a view's exclusive upper bound or a LowerKey
// query's strict bound).
type RangeEntry[K comparable] struct {
	Lo, Hi *K
	LoExcl bool
	HiExcl bool
	Owner  Owner
}

// RangeTable is the rangeLockers set of paper Table 6. As the paper
// does, it is a simple set scanned linearly for conflicts — "an
// alternative would have been to use an interval tree, but the extra
// complexity and potential overhead seemed unnecessary for the common
// case" (§3.2).
type RangeTable[K comparable] struct {
	cmp     func(a, b K) int
	entries map[*RangeEntry[K]]struct{}
	sweep   []Owner // recycled violation-sweep scratch (see recycleSweep)
}

// NewRangeTable creates an empty table ordered by cmp.
func NewRangeTable[K comparable](cmp func(a, b K) int) *RangeTable[K] {
	return &RangeTable[K]{cmp: cmp, entries: make(map[*RangeEntry[K]]struct{})}
}

// Add inserts e; the caller keeps the pointer and may widen e's bounds
// in place as its iterator advances (under the same critical section
// that guards the table).
func (t *RangeTable[K]) Add(e *RangeEntry[K]) { t.entries[e] = struct{}{} }

// Remove deletes e.
func (t *RangeTable[K]) Remove(e *RangeEntry[K]) { delete(t.entries, e) }

// Len returns the number of range locks.
func (t *RangeTable[K]) Len() int { return len(t.entries) }

// Covers reports whether e's interval contains k.
func (t *RangeTable[K]) Covers(e *RangeEntry[K], k K) bool {
	if e.Lo != nil {
		c := t.cmp(k, *e.Lo)
		if c < 0 || (c == 0 && e.LoExcl) {
			return false
		}
	}
	if e.Hi != nil {
		c := t.cmp(k, *e.Hi)
		if c > 0 || (c == 0 && e.HiExcl) {
			return false
		}
	}
	return true
}

// ViolateCovering aborts the owner of every range containing k, other
// than self, for reason, in ascending owner handle-id order (see
// orderedOwners).
func (t *RangeTable[K]) ViolateCovering(k K, self Owner, reason *stm.Reason) int {
	victims := t.sweep
	for e := range t.entries {
		if e.Owner == self || !t.Covers(e, k) {
			continue
		}
		victims = append(victims, e.Owner)
	}
	sortOwners(victims)
	n := 0
	var prev Owner
	for _, o := range victims {
		if o == prev {
			// Several of one owner's ranges may cover k; one Violate is
			// enough and keeps the count meaningful.
			continue
		}
		prev = o
		if o.Violate(reason) {
			n++
		}
	}
	t.sweep = recycleSweep(victims)
	return n
}
