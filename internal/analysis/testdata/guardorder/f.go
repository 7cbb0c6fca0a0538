// Package guardorder exercises the guard-order rule: every path that
// holds more than one stm.Guard must acquire them through the footprint
// machinery (lockSpan / acquireGuards, which sweep in ascending ID
// order) or under an explicit ID() comparison. A manual second
// Guard.Lock while one is held reintroduces the lock-order inversion
// the commit protocol exists to rule out.
package guardorder

import (
	"tcc/internal/stm"
)

var (
	guardA = stm.NewGuard()
	guardB = stm.NewGuard()
)

// nestedManual: the textbook inversion — a second guard acquired
// directly inside the first one's hold window.
func nestedManual() {
	guardA.Lock()
	guardB.Lock() // want guard-order
	guardB.Unlock()
	guardA.Unlock()
}

// nestedAscending is the sanctioned manual form: the nesting sits under
// an if whose condition compares the guards' IDs, which is the
// protocol's own ascending order made explicit.
func nestedAscending(a, b *stm.Guard) {
	if a.ID() < b.ID() {
		a.Lock()
		b.Lock()
		b.Unlock()
		a.Unlock()
	}
}

// sweepAll is a manual footprint sweep outside the machinery: every
// iteration locks and nothing inside the loop releases, so the caller
// ends up holding the whole set in slice order, not ID order.
func sweepAll(gs []*stm.Guard) {
	for _, g := range gs {
		g.Lock() // want guard-order
	}
	for _, g := range gs {
		g.Unlock()
	}
}

// perStripe holds at most one guard at a time: each iteration releases
// before the next acquires. No footprint, no ordering obligation.
func perStripe(gs []*stm.Guard) {
	for _, g := range gs {
		g.Lock()
		g.Unlock()
	}
}

// acquireGuards and lockSpan ARE the machinery: the sweep loop is
// their job (the real ones sort the footprint by ID first), so the
// loop check exempts functions carrying a window directive.
//
//stmlint:window open
func acquireGuards(gs []*stm.Guard) {
	for _, g := range gs {
		g.Lock()
	}
}

type striped struct {
	guards []*stm.Guard
}

// lockSpan/unlockSpan model the striped collections' one multi-guard
// sweep (a contiguous span of stripes or lanes, ascending ID order by
// construction).
//
//stmlint:window open
func (s *striped) lockSpan(lo, hi int) {
	for _, g := range s.guards[lo:hi] {
		g.Lock()
	}
}

//stmlint:window close
func (s *striped) unlockSpan(lo, hi int) {
	for _, g := range s.guards[lo:hi] {
		g.Unlock()
	}
}

// footprintInWindow: even the sanctioned machinery must not be entered
// with a guard already held — the sweep orders its own set, but cannot
// order it against what the caller holds.
func footprintInWindow(gs []*stm.Guard) {
	guardA.Lock()
	acquireGuards(gs) // want guard-order
	guardA.Unlock()
}

// lockThenCall reaches the second acquisition through a call: the
// diagnostic lands on the in-window call site with the chain
// (grabOther → Guard.Lock) in its message.
func lockThenCall() {
	guardA.Lock()
	grabOther() // want guard-order
	guardA.Unlock()
}

func grabOther() {
	guardB.Lock()
	guardB.Unlock()
}

// handlerGrabs: a commit handler runs with its registered guard held,
// so acquiring another guard inside one is the same inversion.
func handlerGrabs(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnTopCommitGuarded(guardA, func() {
			guardB.Lock() // want guard-order
			guardB.Unlock()
		})
		return nil
	})
}

// nestedInWindow: a closed-nested child that rolls back compensates
// under the guards its abort handlers name, so tx.Nested inside a hold
// window can block on a second guard (Tx.Nested → Tx.compensate →
// Tx.window → acquireGuards) with the first still held.
func nestedInWindow(tx *stm.Tx) error {
	guardA.Lock()
	err := tx.Nested(func() error { return nil }) // want guard-order trace-in-commit
	guardA.Unlock()
	return err
}

// stripeSweepUnderGuard: calling a striped collection's lockSpan while
// already holding a guard is flagged at the call site — whether the
// span is every stripe (a whole-map snapshot, a queue's all-lane
// emptiness check) or a contiguous interval of a sorted map.
func stripeSweepUnderGuard(s *striped) {
	guardA.Lock()
	s.lockSpan(0, len(s.guards)) // want guard-order
	s.unlockSpan(0, len(s.guards))
	guardA.Unlock()
}

func spanSweepUnderGuard(s *striped) {
	guardA.Lock()
	s.lockSpan(0, 2) // want guard-order
	s.unlockSpan(0, 2)
	guardA.Unlock()
}

// deferredSpanRelease: a span released by defer (the shape of the STM's
// handler window) is held to the end of the block, so an acquisition
// after the defer statement is a second guard under the first.
func deferredSpanRelease(s *striped) {
	s.lockSpan(0, 2)
	defer s.unlockSpan(0, 2)
	guardA.Lock() // want guard-order
	guardA.Unlock()
}

// suppressedNested: a reviewed violation is silenced in place.
func suppressedNested() {
	guardA.Lock()
	//stmlint:ignore guard-order reviewed: B's owner is quiesced here
	guardB.Lock()
	guardB.Unlock()
	guardA.Unlock()
}

// sequentialIsFine holds one guard at a time; no footprint forms.
func sequentialIsFine() {
	guardA.Lock()
	guardA.Unlock()
	guardB.Lock()
	guardB.Unlock()
}
