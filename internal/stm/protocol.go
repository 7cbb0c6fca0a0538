package stm

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tcc/internal/obs/metrics"
)

// Protocol is the word-level concurrency-control seam: the set of
// hooks through which the transaction machinery (retry loop, Var
// access, nesting, commit) touches variables. Everything above the
// seam — guards, commit/abort handlers, open nesting, semantic locks,
// violations, the MVCC-lite snapshot path — is protocol-independent,
// exactly as the paper's transactional collections are independent of
// the word-level TM they run on.
//
// The interface is sealed (its methods take unexported types): new
// protocols live in this package, in a protocol_*.go file, and are
// chosen by name via Thread.SetProtocol. The registered protocols:
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
//	             surface at the write instead of at commit.
//
// One process may run different protocols on different Threads, but
// all Threads that share transactional data must use the same
// protocol: each protocol's reads are only coherent against its own
// commit discipline.
type Protocol interface {
	// Name returns the protocol's registry name.
	Name() string
	// begin samples whatever begin-of-attempt state the protocol needs
	// and returns the attempt's read version (TL2: the global clock;
	// NOrec: the sequence lock). Also used for each attempt of an
	// open-nested child, which reads at its own, newer point.
	begin(t *Thread) uint64
	// read returns a committed value of c consistent with everything
	// tx has read so far, recording whatever evidence later validation
	// needs. Runs after the write-set lookup missed; unwinds with
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
	// commit publishes level l: acquire whatever the protocol locks,
	// validate, pass the point of no return when doPrepare (top-level
	// commits; open-nested children skip it), install at a fresh global
	// clock tick, release. On failure nothing is installed and every
	// lock the call itself took is released. Must not unwind: it runs
	// inside the commit-guard window.
	commit(tx *Tx, l *level, doPrepare bool) bool
	// abandon releases per-variable state an aborted attempt may still
	// hold (eager protocols: acquired lockwords). Runs on every
	// rollback, before the abort-guard footprint is taken. Must be
	// idempotent.
	abandon(tx *Tx)
	// abandonLevel is abandon for one nesting level that is gone — a
	// closed-nested child rolled back, an open-nested child's attempt
	// over, committed or not: release state held only for its writes.
	abandonLevel(tx *Tx, l *level)
}

// DefaultProtocol is the name NewThread starts every worker on.
const DefaultProtocol = "tl2"

// protocolRegistry maps names to implementations. Written only by
// registerProtocol during package init (protocols are sealed), so
// unsynchronized reads afterwards are safe.
var protocolRegistry = map[string]Protocol{}

// protoThreadCounts tracks how many Threads currently run each
// protocol, exported as the tcc_stm_protocol_threads gauge so /metrics
// scrapes can tell sweep configurations apart.
var protoThreadCounts = map[string]*atomic.Int64{}

// protoCommitCounters holds the pre-registered per-protocol commit
// counters (label: protocol); Threads cache their own pointer so the
// commit path never touches this map.
var protoCommitCounters = map[string]*metrics.Counter{}

// registerProtocol adds p to the registry and creates its metrics
// instruments. Called from init() in protocol_*.go files only.
func registerProtocol(p Protocol) Protocol {
	name := p.Name()
	if _, dup := protocolRegistry[name]; dup {
		panic("stm: duplicate protocol " + name)
	}
	protocolRegistry[name] = p
	protoCommitCounters[name] = metrics.Default.CounterSharded(metrics.StmProtocolCommits,
		"Committed top-level transactions by concurrency-control protocol", 8,
		metrics.L("protocol", name))
	n := &atomic.Int64{}
	protoThreadCounts[name] = n
	metrics.Default.GaugeFunc(metrics.StmProtocolThreads,
		"Threads currently configured for each concurrency-control protocol",
		func() float64 { return float64(n.Load()) },
		metrics.L("protocol", name))
	return p
}

// Protocols returns the registered protocol names, sorted, with the
// default first — the iteration order of the conformance suite and the
// sweep driver.
func Protocols() []string {
	names := make([]string, 0, len(protocolRegistry))
	for name := range protocolRegistry {
		if name != DefaultProtocol {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return append([]string{DefaultProtocol}, names...)
}

// SetProtocol switches the worker to the named concurrency-control
// protocol. It must be called outside any transaction, and every
// Thread sharing transactional data with this one must use the same
// protocol. The choice is sticky until the next SetProtocol.
func (t *Thread) SetProtocol(name string) error {
	if t.inTx {
		panic("stm: SetProtocol inside a transaction")
	}
	p, ok := protocolRegistry[name]
	if !ok {
		return fmt.Errorf("stm: unknown protocol %q (registered: %v)", name, Protocols())
	}
	if t.proto != nil {
		protoThreadCounts[t.proto.Name()].Add(-1)
	}
	t.proto = p
	t.protoCommits = protoCommitCounters[name]
	t.Stats.Protocol = name
	protoThreadCounts[name].Add(1)
	return nil
}

// Protocol returns the name of the worker's active protocol.
func (t *Thread) Protocol() string { return t.proto.Name() }
