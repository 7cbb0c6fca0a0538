// Package obs is the observability layer for the STM: a TAPE-style
// event stream (conflict attribution, latency, lost work) that is
// always compiled in but near-zero-cost when disabled.
//
// The design splits responsibilities so the STM hot path stays cheap:
//
//   - The STM emits Event values through a Tracer interface. The
//     active tracer lives behind one atomic pointer; when no tracer is
//     installed the per-transaction cost is a single atomic load and a
//     nil check (guarded by the alloc/latency benchmarks in
//     internal/stm/stm_bench_test.go).
//   - Sinks do the expensive work. Profile aggregates events into a
//     conflict heatmap and latency/retry histograms; Recorder keeps a
//     bounded ring of raw events and exports Chrome trace_event JSON.
//
// obs is a leaf package: it must not import internal/stm (the STM
// imports obs), so events carry plain strings and integers rather
// than STM types. Times and durations are in clock cycles of the
// emitting thread's stm.Clock — virtual cycles under internal/sim,
// cost-model cycles under the real clock.
package obs

import "sync/atomic"

// Kind classifies a lifecycle event.
type Kind uint8

const (
	// KindTxBegin marks the start of one attempt of a top-level
	// transaction. Attempt counts retries (0 = first try).
	KindTxBegin Kind = iota
	// KindTxCommit marks a successful top-level commit. Dur spans the
	// whole transaction including all aborted attempts and backoff;
	// Reads/Writes/Handlers describe the committed attempt.
	KindTxCommit
	// KindTxAbort marks a memory-conflict rollback of one attempt.
	// Where names the conflicting Var (its label), OtherTx the
	// transaction holding its lockword (0 if unknown), Reason the
	// mechanical cause ("stale read", "commit lock busy", ...). Dur is
	// the lost work: cycles spent on the doomed attempt.
	KindTxAbort
	// KindTxViolated marks a semantic rollback: another transaction's
	// ViolateOthers, or a program-directed Handle.Violate. Reason is
	// the violation reason (semantic-lock reasons identify the
	// collection and, optionally, the key).
	KindTxViolated
	// KindTxUserAbort marks a rollback requested by the transaction
	// body returning an error (or stm.Abort).
	KindTxUserAbort
	// KindNestedRetry marks a closed-nested child rolling back and
	// retrying without aborting its parent (partial rollback).
	KindNestedRetry
	// KindOpenCommit marks an open-nested section completing (tx.Open
	// returning nil) while the transaction continues.
	KindOpenCommit
	// KindBackoff marks a contention-manager pause; Dur is the cycles
	// waited, Attempt the retry count that provoked it.
	KindBackoff
	// KindGuardWait marks a commit or rollback that blocked acquiring
	// its commit-guard footprint: commit-serialization lost work. Where
	// names the last contended guard, Waits counts how many guards of
	// the footprint were contended. Emitted after the guards are
	// released, once per contended commit/rollback.
	KindGuardWait
)

var kindNames = [...]string{
	"tx.begin", "tx.commit", "tx.abort", "tx.violated", "tx.user-abort",
	"nested.retry", "open.commit", "backoff", "guard.wait",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "obs.unknown"
}

// Event is one structured lifecycle record. Fields that do not apply
// to a Kind are zero. Events are plain values: sinks may retain them.
type Event struct {
	Kind     Kind
	TxID     uint64 // top-level transaction id (stable across retries)
	OtherTx  uint64 // conflicting transaction id, if known
	CPU      int    // virtual CPU / worker lane (Thread.TraceID)
	Attempt  int    // retry count of the enclosing top-level attempt
	Time     uint64 // emission time, cycles on the emitting clock
	Dur      uint64 // span length in cycles (commit: whole tx; abort: attempt)
	Reads    int    // read-set size (commit events)
	Writes   int    // write-set size (commit events)
	Handlers int    // commit/abort handlers attached (commit events)
	Waits    int    // contended guards in the footprint (guard-wait events)
	Snapshot bool   // transaction ran on the MVCC-lite snapshot path (begin/commit events)
	Where    string // conflicting Var or guard label ("HashMap.size", ...)
	Reason   string // mechanical cause or violation reason
}

// Tracer receives every event. Implementations must be safe for
// concurrent use and must not call back into the STM: Trace runs on
// the transaction's thread between attempts (never while a commit
// guard is held — enforced by the stmlint trace-in-commit rule).
type Tracer interface {
	Trace(e Event)
}

var active atomic.Pointer[Tracer]

// SetTracer installs t as the process-global tracer (nil disables
// tracing). Installation is atomic; in-flight transactions pick the
// tracer up on their next attempt.
func SetTracer(t Tracer) {
	if t == nil {
		active.Store(nil)
		return
	}
	active.Store(&t)
}

// Active returns the installed tracer, or nil. This is the hot-path
// check: one atomic load.
func Active() Tracer {
	p := active.Load()
	if p == nil {
		return nil
	}
	return *p
}

type tee struct{ a, b Tracer }

func (t tee) Trace(e Event) {
	t.a.Trace(e)
	t.b.Trace(e)
}

// Tee fans events out to both tracers; nil arguments collapse away,
// so Tee(Active(), p) layers p over whatever is already installed.
func Tee(a, b Tracer) Tracer {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return tee{a, b}
	}
}
