package core

import (
	"sync"

	"tcc/internal/stm"
)

// Counter is a shared counter updated through open-nested transactions
// with compensation, the paper's "global counter" reduced-isolation
// example (§1, §6.3): increments become globally visible immediately —
// so concurrent incrementing transactions never conflict — and an abort
// handler subtracts the transaction's contribution on rollback.
// Serializability of reads is deliberately forgone: Get returns the
// instantaneous value, which may include increments of transactions
// that later abort.
type Counter struct {
	// guard fuses the value's mutex with the commit-guard shard the
	// compensating abort handler is registered under.
	guard *stm.Guard
	value int64
}

// counterLocal accumulates one transaction's net contribution so a
// single abort handler — bound once, like a footprint's pair — can
// compensate for all of it. It is recycled (attach) under a rule of its
// own: a commit has nothing to undo, so Counter registers no commit
// handler and nothing cleans the local when its attempt ends. (Its guard
// is still in the commit footprint: the commit window takes the guard of
// every root-level abort registration too.) No table refers to the local
// either, so the next attempt to attach it — h is not its handle — resets
// delta.
type counterLocal struct {
	c       *Counter
	h       *stm.Handle
	delta   int64
	onAbort func()
}

// reattach readies l for the attempt tx unless it already serves it: the
// compensating handler registered, then a zero contribution and the stamp.
func (l *counterLocal) reattach(tx *stm.Tx) bool {
	if l.h != tx.Handle() {
		tx.OnTopAbortGuarded(l.c.guard, l.onAbort)
		l.h, l.delta = tx.Handle(), 0
	}
	return true
}

// NewCounter creates a counter with an initial value.
func NewCounter(initial int64) *Counter {
	return &Counter{guard: stm.NewGuard(), value: initial}
}

func (c *Counter) local(tx *stm.Tx) *counterLocal { return attach(tx, c, c.newLocal) }

func (c *Counter) newLocal(*stm.Thread) *counterLocal {
	l := &counterLocal{c: c}
	l.onAbort = func() { c.value -= l.delta }
	return l
}

// Add applies delta immediately (open-nested update with compensation
// on abort).
func (c *Counter) Add(tx *stm.Tx, delta int64) {
	l := c.local(tx)
	open(tx, 8, func() {
		c.guard.Lock()
		c.value += delta
		c.guard.Unlock()
		l.delta += delta
	})
}

// Get returns the instantaneous value (reduced isolation: no semantic
// lock, no conflict).
func (c *Counter) Get(tx *stm.Tx) int64 {
	var v int64
	open(tx, 4, func() {
		c.guard.Lock()
		v = c.value
		c.guard.Unlock()
	})
	return v
}

// Value returns the committed value outside any transaction.
func (c *Counter) Value() int64 {
	c.guard.Lock()
	defer c.guard.Unlock()
	return c.value
}

// UIDGen generates unique, monotonically increasing identifiers inside
// transactions without creating conflicts — the paper's UID example and
// the main fix behind the "Atomos Open" SPECjbb configuration (§6.3,
// District.nextOrder). Identifiers handed to transactions that later
// abort are simply skipped, the classic monotonic-identifier trade-off
// between isolation and serializability the database literature
// describes: uniqueness and monotonicity hold, density does not.
type UIDGen struct {
	mu   sync.Mutex
	next int64
}

// NewUIDGen creates a generator whose first identifier is start.
func NewUIDGen(start int64) *UIDGen { return &UIDGen{next: start} }

// Next returns a fresh identifier, immediately and irrevocably (no
// compensation on abort — see the type comment).
func (g *UIDGen) Next(tx *stm.Tx) int64 {
	var id int64
	open(tx, 8, func() {
		g.mu.Lock()
		id = g.next
		g.next++
		g.mu.Unlock()
	})
	return id
}

// Current returns the next identifier that would be handed out, without
// consuming it and with no semantic lock — a reduced-isolation read
// like Counter.Get. TPC-C's Stock-Level transaction uses exactly this
// (reading D_NEXT_O_ID to bound its scan of recent orders), and because
// the read creates no dependency it never conflicts with concurrent
// Next calls.
func (g *UIDGen) Current(tx *stm.Tx) int64 {
	var v int64
	open(tx, 4, func() {
		g.mu.Lock()
		v = g.next
		g.mu.Unlock()
	})
	return v
}

// Peek returns the next identifier that would be handed out, outside
// any transaction.
func (g *UIDGen) Peek() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.next
}
