// Package stm is a software transactional memory with the rich
// transactional semantics the paper's collection classes require
// (paper §4): closed-nested transactions with partial rollback,
// open-nested transactions, commit and abort handlers associated with
// nesting levels, and program-directed abort of other transactions.
//
// The design is TL2-flavored optimistic concurrency control: a global
// version clock, per-variable version numbers, per-transaction read and
// write sets, lazy versioning (writes buffered until commit), and
// commit-time validation with the write set locked in variable-ID order.
// The paper evaluates on the TCC hardware TM; this STM substitutes for
// it (see DESIGN.md §4) and exposes the same programmer-visible
// semantics.
//
// All time is charged through a Clock so the same transactional code
// runs both on real hardware (RealClock) and on the deterministic
// virtual-CPU simulator (sim.CPU satisfies Clock).
package stm

import "runtime"

// Clock abstracts the passage of time for a single worker. It exists so
// transactional code can charge abstract cycles: on the simulator, Tick
// advances virtual time and yields to the scheduler; on real hardware it
// is (nearly) free and real time passes on its own.
type Clock interface {
	// Tick charges busy cycles. Must not be called while holding a lock
	// shared with other workers.
	Tick(cycles uint64)
	// Wait charges stall cycles (contention backoff).
	Wait(cycles uint64)
	// Now returns the worker-local time in cycles.
	Now() uint64
}

// RealClock is the Clock for running on the host machine: Tick is a
// no-op (real work takes real time), Wait yields the processor briefly,
// and Now counts only explicitly charged cycles.
type RealClock struct {
	now uint64
}

// Tick records charged cycles; on real hardware the work itself already
// took time, so nothing else happens.
func (c *RealClock) Tick(cycles uint64) { c.now += cycles }

// maxWaitYields caps how many times one Wait call yields the processor.
// Backoff cycles grow exponentially with the retry attempt; without a
// cap a long backoff degrades into a busy Gosched storm (cycles/64
// yields) that burns the very CPU the backoff is meant to cede.
const maxWaitYields = 64

// waitYields maps a stall of the given length to a number of scheduler
// yields: proportional for short stalls, clamped at maxWaitYields.
func waitYields(cycles uint64) uint64 {
	y := cycles/64 + 1
	if y > maxWaitYields {
		return maxWaitYields
	}
	return y
}

// Wait backs off by yielding the processor, roughly proportionally to
// the requested cycles, capped so pathological backoffs do not spin.
func (c *RealClock) Wait(cycles uint64) {
	c.now += cycles
	for i := uint64(0); i < waitYields(cycles); i++ {
		runtime.Gosched()
	}
}

// Now returns the cycles charged so far.
func (c *RealClock) Now() uint64 { return c.now }

var _ Clock = (*RealClock)(nil)

// Abstract cycle costs, mirroring the paper's "all instructions except
// loads and stores have a CPI of 1.0" abstraction: only the relative
// magnitudes matter for the speedup shapes the figures report.
const (
	// CostRead and CostWrite are charged per transactional variable
	// access.
	CostRead  = 2
	CostWrite = 2
	// CostTxBegin is charged when a top-level transaction (re)starts.
	CostTxBegin = 8
	// CostCommitBase plus CostCommitPerWrite are charged at commit.
	CostCommitBase     = 12
	CostCommitPerWrite = 3
	// CostSnapshotCommit is charged when a snapshot (read-only)
	// transaction completes: cheaper than CostCommitBase because the
	// snapshot path locks, validates, and publishes nothing.
	CostSnapshotCommit = 4
	// CostAbort is the fixed rollback cost; the real price of an abort
	// is re-executing the body, which re-charges naturally.
	CostAbort = 16
	// CostOpenCommit is charged when an Open section returns nil.
	CostOpenCommit = 6
	// backoffBase seeds the randomized exponential backoff run between
	// attempts of a conflicted transaction (contention management,
	// paper §5.1). The cap keeps repeatedly violated long transactions
	// from stalling far beyond their own body length.
	backoffBase = 16
	// backoffMaxShift caps the exponential growth of the backoff.
	backoffMaxShift = 6
)
