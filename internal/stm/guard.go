package stm

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// A Guard is one shard of the commit guard: a mutex with a unique
// 64-bit identity that serializes the window from a transaction's point
// of no return through the completion of the handlers registered under
// it. On the paper's TCC hardware a commit is atomic with the conflict
// broadcast that violates other processors; without a guard a reader
// holding a semantic lock could slip its own commit between a writer's
// memory commit and the writer's handler-performed semantic conflict
// detection, breaking serializability. That argument only involves the
// transactions sharing one collection instance, so each transactional
// collection owns a Guard and registers its handlers under it
// (OnCommitGuarded / OnAbortGuarded): transactions with disjoint guard
// footprints commit — and run their handler windows — in parallel.
//
// Ordering invariant: a commit or rollback acquires its whole guard
// set in ascending id order before anything else, then try-locks the
// write-set lockwords (non-blocking, so they cannot deadlock against
// the guards); the collections' own open-nested critical sections lock
// either exactly one guard at a time or — for operations that must see
// every stripe of a striped collection at once, like an iterator
// snapshot — several guards in the same ascending id order the commit
// protocol uses (core's lockSpan). Together these make the protocol
// deadlock-free.
//
// Handler bodies are short critical sections and must not charge
// virtual time while a guard is held (they use Thread.DeferTick), so on
// the simulator guards are never contended and on real hardware they
// serialize only the brief commit windows of transactions that share a
// collection.
type Guard struct {
	id    uint64
	label string
	mu    sync.Mutex
}

// guardIDs hands out process-global guard identities.
var guardIDs atomic.Uint64

// NewGuard creates a guard with a fresh identity. Transactional
// collections create one per instance at construction time.
func NewGuard() *Guard {
	return &Guard{id: guardIDs.Add(1)}
}

// ID returns the guard's unique identity (the canonical acquisition
// order is ascending ID).
func (g *Guard) ID() uint64 { return g.id }

// SetLabel names the guard in observability output (guard-wait events);
// call during setup, before concurrent use.
func (g *Guard) SetLabel(label string) { g.label = label }

// Label returns the label set by SetLabel, or "guard#<id>".
func (g *Guard) Label() string {
	if g.label != "" {
		return g.label
	}
	return "guard#" + strconv.FormatUint(g.id, 10)
}

// Lock acquires the guard outside the commit protocol — the
// collections' open-nested critical sections, which fuse the mutex
// that protects the wrapped structure and its lock tables with the
// guard their handlers run under, so lock-table reads stay atomic with
// respect to commits (the paper's low-level open-nested transactions).
func (g *Guard) Lock() { g.mu.Lock() }

// Unlock releases the guard.
func (g *Guard) Unlock() { g.mu.Unlock() }

// gatherGuards appends the guard each registration in regs names to
// buf, duplicates and all: a footprint is derived from the handlers at
// the moment it is acquired, and sortGuards makes it canonical.
func gatherGuards(buf []*Guard, regs []registration) []*Guard {
	for _, r := range regs {
		buf = append(buf, r.g)
	}
	return buf
}

// sortGuards orders buf ascending by id and removes duplicates in
// place (one per registration under the same guard), returning the
// compacted slice.
func sortGuards(buf []*Guard) []*Guard {
	slices.SortFunc(buf, func(a, b *Guard) int { return cmp.Compare(a.id, b.id) })
	return slices.Compact(buf)
}

// acquireGuards locks every guard in gs, which must be sorted by id
// (deadlock freedom). The TryLock probe is only contention detection:
// a guard that is busy is taken through lockContended, which records
// the wait for the guard-waits edge reported after release.
//
//stmlint:window open
func acquireGuards(tx *Tx, gs []*Guard) {
	for _, g := range gs {
		if !g.mu.TryLock() {
			tx.lockContended(g)
		}
	}
}

// releaseGuards unlocks every guard in gs (any order; nothing blocks
// on release).
//
//stmlint:window close
func releaseGuards(gs []*Guard) {
	for _, g := range gs {
		g.mu.Unlock()
	}
}
