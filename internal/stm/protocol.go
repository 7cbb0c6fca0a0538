package stm

import "fmt"

// Protocol is the word-level concurrency-control seam: the set of
// hooks through which the transaction machinery (retry loop, Var
// access, nesting, commit) touches variables. Everything above the
// seam — guards, commit/abort handlers, open nesting, semantic locks,
// violations, the MVCC-lite snapshot path — is protocol-independent,
// exactly as the paper's transactional collections are independent of
// the word-level TM they run on.
//
// The interface is sealed (its methods take unexported types): new
// protocols live in this package, in a protocol_*.go file and the
// protocols list, and are chosen by name via Thread.SetProtocol:
//
//	tl2        — the default. Global version clock, per-Var versioned
//	             lockwords, invisible reads validated by version,
//	             commit-time write locking (DESIGN.md §4).
//	norec      — NOrec-style value-based validation over a single
//	             global sequence lock: reads record the observed value
//	             box, validation re-compares values, and commits
//	             serialize on the sequence lock with no per-Var version
//	             traffic on the read side (DESIGN.md §11).
//	tl2-eager  — TL2 with encounter-time write locking: Set acquires
//	             the lockword immediately, so write-write conflicts
//	             surface at the write instead of at commit; rollback
//	             releases them (Tx.releaseEagerLocks).
//
// One process may run different protocols on different Threads, but
// all Threads that share transactional data must use the same
// protocol: each protocol's reads are only coherent against its own
// commit discipline.
type Protocol interface {
	// Name returns the name SetProtocol selects the protocol by.
	Name() string
	// begin samples whatever begin-of-attempt state the protocol needs
	// and returns the attempt's read version (TL2: the global clock;
	// NOrec: the sequence lock rounded down to even, which a writer may
	// still hold). Called once per ordinary attempt.
	begin(t *Thread) uint64
	// read returns a committed value of c consistent with everything
	// tx has read so far, recording the value box it returns for later
	// validation. Runs after the write-set lookup missed; unwinds with
	// sigRetry when consistency cannot be preserved.
	read(tx *Tx, c *varCore) any
	// observeWrite runs at Set time, before val is buffered in tx's
	// current level. Eager protocols acquire the variable's lockword
	// here; lazy protocols do nothing.
	observeWrite(tx *Tx, c *varCore)
	// extend revalidates every read tx has recorded and, on success,
	// moves tx's read version forward to the present — the partial-
	// rollback retry's way of keeping the enclosing transaction viable.
	extend(tx *Tx) bool
	// commit publishes the root level l of a top-level transaction:
	// acquire whatever the protocol locks, validate, pass the point of no
	// return (Handle.toPrepared), install at a fresh global clock tick,
	// release. On failure nothing is installed and every lock the call
	// itself took is released. Must not unwind: it runs inside the
	// commit-guard window.
	commit(tx *Tx, l *level) bool
}

// protocols is the fixed protocol list, default first — the iteration
// order of the conformance suite and the sweep driver, and the names
// SetProtocol accepts.
var protocols = [...]Protocol{tl2Protocol{}, norecProtocol{}, eagerProtocol{}}

// Protocols returns the protocol names, the default first.
func Protocols() []string {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = p.Name()
	}
	return names
}

// SetProtocol switches the worker to the named concurrency-control
// protocol. It must be called outside any transaction, and every
// Thread sharing transactional data with this one must use the same
// protocol. The choice is sticky until the next SetProtocol.
func (t *Thread) SetProtocol(name string) error {
	if t.inTx {
		panic("stm: SetProtocol inside a transaction")
	}
	for _, p := range protocols {
		if p.Name() == name {
			t.proto = p
			t.Stats.Protocol = name
			return nil
		}
	}
	return fmt.Errorf("stm: unknown protocol %q (have %v)", name, Protocols())
}

// Protocol returns the name of the worker's active protocol.
func (t *Thread) Protocol() string { return t.proto.Name() }
