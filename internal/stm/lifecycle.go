package stm

import (
	"sync/atomic"
	"time"

	"tcc/internal/obs"
	"tcc/internal/obs/metrics"
)

// This file is the transaction lifecycle as the outside sees it: every
// edge a transaction crosses — begin, commit, rollback, snapshot
// fallback, open-nested section, nested retry, guard waits, backoff —
// is one function here, and that function is the only place the edge
// is reported. The control flow (Thread.run, Tx.Open,
// Tx.Nested, Tx.rollback, Tx.window) calls the edge and knows nothing
// about sinks. There are three: Thread.Stats (always on), the live
// metrics plane (internal/obs/metrics) and the event tracer
// (internal/obs).
//
// Every edge has the same shape: bump Stats unconditionally; return on
// one observed() test; then feed the metrics counters and the tracer
// from the same values, consuming the shared conflict or guard-wait
// record exactly once whichever sinks are on. So the three sinks cannot
// disagree about what happened.
//
// Cost discipline: the disabled path is the two atomic loads in
// edgeBegin (obs.Active and metrics.On, captured for the attempt) and
// no allocation. With only metrics on, no Var label is resolved and no
// txid assigned. Inside a guard or lockword hold window only the two
// recorders below run (noteConflict, lockContended): plain field stores
// of pre-existing pointers and constant strings — no allocation, no
// sink call (stmlint's trace-in-commit rule checks this). Everything
// that formats, allocates or calls a sink runs in an edge, after the
// window has closed.

// Instruments of the metrics plane, registered against metrics.Default
// under the canonical names of metrics/names.go. Each is touched by
// exactly one edge function.
var (
	mCommits = metrics.Default.CounterSharded(metrics.StmCommits,
		"Committed top-level transactions (includes snapshot-path commits)", 8)
	mRetries = metrics.Default.CounterSharded(metrics.StmRetries,
		"Top-level attempt restarts (memory aborts + violations)", 8)
	mViolations = metrics.Default.CounterSharded(metrics.StmViolations,
		"Top-level rollbacks from program-directed (semantic) aborts", 8)
	mUserAborts = metrics.Default.Counter(metrics.StmUserAborts,
		"Rollbacks requested by the transaction body")
	mNestedRetries = metrics.Default.Counter(metrics.StmNestedRetries,
		"Partial rollbacks of closed-nested levels")
	mOpenCommits = metrics.Default.CounterSharded(metrics.StmOpenCommits,
		"Open-nested sections completed", 8)
	mSnapCommits = metrics.Default.CounterSharded(metrics.StmSnapshotCommits,
		"Top-level commits completed on the MVCC-lite snapshot path", 8)
	mSnapFallbacks = metrics.Default.Counter(metrics.StmSnapshotFallbacks,
		"Read-only transactions that left the snapshot path for the retry path")
	mGuardWaits = metrics.Default.Counter(metrics.StmGuardWaits,
		"Contended commit-guard acquisitions (commit-serialization lost work)")
	mGuardWaitNs = metrics.Default.Counter(metrics.StmGuardWaitNs,
		"Wall nanoseconds spent blocked acquiring commit guards")
	mTxLatency = metrics.Default.Summary(metrics.StmTxLatency,
		"Top-level commit latency in thread-clock cycles, first attempt to commit (windowed)")

	// mAborts counts memory-conflict rollbacks by mechanical cause: the
	// fixed cause vocabulary below plus "other" (no attribution
	// recorded), pre-registered so counting an abort never touches the
	// registry (and never allocates).
	mAborts = map[string]*metrics.Counter{}
)

func init() {
	for _, cause := range []string{causeStaleRead, causeLockedVar, causeCommitLock, causeCommitStale, "other"} {
		mAborts[cause] = metrics.Default.CounterSharded(metrics.StmAborts,
			"Top-level rollbacks from memory-level conflicts, by mechanical cause", 8,
			metrics.L("cause", cause))
	}
	metrics.Default.GaugeFunc(metrics.StmClock,
		"TL2 global version clock (slope = system-wide write-commit rate)",
		func() float64 { return float64(globalClock.Load()) })
}

// txIDs hands out process-global transaction ids. Ids are assigned
// lazily — only when a tracer is installed — so untraced runs pay
// nothing.
var txIDs atomic.Uint64

// Mechanical conflict causes, as constant strings so recording one
// never allocates.
const (
	causeStaleRead   = "stale read"
	causeLockedVar   = "locked by committer"
	causeCommitLock  = "commit lock busy"
	causeCommitStale = "commit validation failed"
)

// conflictRec is the pending attribution of the most recent
// memory-level conflict: which variable, who held it, and the
// mechanical cause. It is written by noteConflict and consumed by the
// next rollback or retry edge.
type conflictRec struct {
	c     *varCore
	other uint64 // txid of the conflicting transaction, if known
	cause string
}

// attribute copies the record into e, resolving the variable's display
// label (which may allocate: tracer branch of an edge only).
func (r conflictRec) attribute(e *obs.Event) {
	if r.c != nil {
		e.Where = r.c.displayLabel()
	}
	e.OtherTx, e.Reason = r.other, r.cause
}

// observed reports whether a sink besides Stats was on when the
// attempt began.
func (tx *Tx) observed() bool { return tx.tracer != nil || tx.mon }

// noteConflict records attribution for an imminent conflict signal.
// Safe inside a hold window: field stores only.
func (tx *Tx) noteConflict(c *varCore, owner *Handle, cause string) {
	if !tx.observed() {
		return
	}
	rec := conflictRec{c: c, cause: cause}
	if owner != nil {
		rec.other = owner.txid
	}
	tx.conflict = rec
}

// lockContended is acquireGuards' slow path: the TryLock probe on g
// failed, so block on it, recording the contention for edgeGuardWaits.
// It runs between guard acquisitions, so it only stores fields. The
// wait is timed on the wall clock, not the Clock: RealClock.Now counts
// only charged cycles and the simulator's clock does not advance while
// a host mutex blocks, so the serialization cost is visible nowhere
// else.
func (tx *Tx) lockContended(g *Guard) {
	if !tx.observed() {
		g.mu.Lock()
		return
	}
	t0 := time.Now()
	g.mu.Lock()
	tx.gwaitNs += uint64(time.Since(t0))
	tx.gwaits++
	tx.gwaitOn = g
}

// event stamps a new event with the transaction's identity and the
// worker's current time.
func (tx *Tx) event(k obs.Kind) obs.Event {
	return obs.Event{
		Kind:    k,
		TxID:    tx.txid,
		CPU:     tx.thread.TraceID,
		Attempt: tx.attempt,
		Time:    tx.thread.Clock.Now(),
	}
}

// since returns now-start clamped at zero (sinks switched on
// mid-transaction can leave start unset).
func since(now, start uint64) uint64 {
	if start >= now {
		return 0
	}
	return now - start
}

// edgeBegin opens an attempt of a top-level transaction. Its two loads
// are the whole cost of disabled observability; what they return holds
// for the attempt. A transaction keeps its txid and firstBirth across
// attempts — including the attempts after a snapshot fallback — so its
// events share one id and its latency spans all of them.
func (tx *Tx) edgeBegin() {
	tx.tracer, tx.mon = obs.Active(), metrics.On()
	if !tx.observed() {
		return
	}
	if tx.firstBirth == 0 {
		tx.firstBirth = tx.handle.birth
	}
	tx.conflict = conflictRec{}
	if tx.tracer == nil {
		return
	}
	if tx.txid == 0 {
		tx.txid = txIDs.Add(1)
	}
	tx.handle.txid = tx.txid
	e := tx.event(obs.KindTxBegin)
	e.Snapshot = tx.mode == modeSnapshot
	tx.tracer.Trace(e)
}

// edgeCommit closes a committed top-level transaction. tx.mode says
// whether it finished on the snapshot path (an AtomicRead that never
// fell back); the latency is the whole transaction's, first attempt to
// now.
func (tx *Tx) edgeCommit() {
	t := tx.thread
	snap := tx.mode == modeSnapshot
	t.Stats.Commits++
	if snap {
		t.Stats.SnapshotCommits++
	}
	if !tx.observed() {
		return
	}
	dur := since(t.Clock.Now(), tx.firstBirth)
	if tx.mon {
		mCommits.AddLane(t.TraceID, 1)
		if snap {
			mSnapCommits.AddLane(t.TraceID, 1)
		}
		mTxLatency.Observe(t.TraceID, dur)
	}
	if tx.tracer != nil {
		e := tx.event(obs.KindTxCommit)
		e.Snapshot, e.Dur = snap, dur
		e.Reads, e.Writes, e.Handlers = len(tx.cur.reads.entries), len(tx.cur.writes.entries), len(tx.cur.onCommit)
		tx.tracer.Trace(e)
	}
}

// edgeRollback closes an attempt that did not commit: a memory conflict
// (obs.KindTxAbort, counted under the cause noteConflict recorded), a
// program-directed abort (obs.KindTxViolated, counted under reason) or
// the body's own request (obs.KindTxUserAbort). The first two restart
// the transaction. reason, when non-empty, overrides the mechanical
// cause in the event (violation reasons carry the semantic
// attribution); Dur is the lost work of this attempt.
func (tx *Tx) edgeRollback(kind obs.Kind, reason string) {
	t := tx.thread
	switch kind {
	case obs.KindTxAbort:
		t.Stats.Aborts++
	case obs.KindTxViolated:
		t.Stats.countViolation(reason)
	default:
		t.Stats.UserAborts++
	}
	if !tx.observed() {
		return
	}
	rec := tx.conflict
	tx.conflict = conflictRec{}
	if tx.mon {
		m := mUserAborts
		switch kind {
		case obs.KindTxViolated:
			m = mViolations
		case obs.KindTxAbort:
			if m = mAborts[rec.cause]; m == nil {
				m = mAborts["other"]
			}
		}
		m.AddLane(t.TraceID, 1)
		if kind != obs.KindTxUserAbort {
			mRetries.AddLane(t.TraceID, 1)
		}
	}
	if tx.tracer != nil {
		e := tx.event(kind)
		e.Dur = since(e.Time, tx.handle.birth)
		rec.attribute(&e)
		if reason != "" {
			e.Reason = reason
		}
		tx.tracer.Trace(e)
	}
}

// edgeFallback records a read-only transaction leaving the snapshot
// path for the ordinary one. Not an abort and not an event: nothing
// was published or locked, and the transaction goes on under the same
// id.
func (tx *Tx) edgeFallback() {
	tx.thread.Stats.SnapshotFallbacks++
	if tx.mon {
		mSnapFallbacks.Add(1)
	}
}

// edgeOpenCommit records an Open section that returned nil.
func (tx *Tx) edgeOpenCommit() {
	tx.thread.Stats.OpenCommits++
	if !tx.observed() {
		return
	}
	if tx.mon {
		mOpenCommits.AddLane(tx.thread.TraceID, 1)
	}
	if tx.tracer != nil {
		tx.tracer.Trace(tx.event(obs.KindOpenCommit))
	}
}

// edgeNestedRetry records the partial rollback of a closed-nested
// level: a conflict below the top level, attributed like an abort. It
// consumes the conflict record, so a later abort of the enclosing
// attempt is counted under its own cause.
func (tx *Tx) edgeNestedRetry() {
	tx.thread.Stats.NestedRetries++
	if !tx.observed() {
		return
	}
	rec := tx.conflict
	tx.conflict = conflictRec{}
	if tx.mon {
		mNestedRetries.Add(1)
	}
	if tx.tracer != nil {
		e := tx.event(obs.KindNestedRetry)
		rec.attribute(&e)
		tx.tracer.Trace(e)
	}
}

// edgeGuardWaits reports the guard contention lockContended recorded
// for the commit or compensation that just released its footprint,
// attributing the commit-serialization lost work to the last contended
// guard. There is a record only when the attempt is observed.
func (tx *Tx) edgeGuardWaits() {
	if tx.gwaits == 0 {
		return
	}
	waits, on, ns := tx.gwaits, tx.gwaitOn, tx.gwaitNs
	tx.gwaits, tx.gwaitOn, tx.gwaitNs = 0, nil, 0
	if tx.mon {
		mGuardWaits.AddLane(tx.thread.TraceID, uint64(waits))
		mGuardWaitNs.AddLane(tx.thread.TraceID, ns)
	}
	if tx.tracer != nil {
		e := tx.event(obs.KindGuardWait)
		e.Where, e.Waits = on.Label(), waits
		tx.tracer.Trace(e)
	}
}

// edgeBackoff reports a contention-manager stall of waited cycles.
func (tx *Tx) edgeBackoff(waited uint64) {
	if tx.tracer != nil {
		e := tx.event(obs.KindBackoff)
		e.Dur = waited
		tx.tracer.Trace(e)
	}
}
