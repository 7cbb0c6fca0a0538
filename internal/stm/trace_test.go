package stm

import (
	"testing"

	"tcc/internal/obs"
)

// recordSink collects events in order; single-threaded tests only.
type recordSink struct {
	events []obs.Event
}

func (r *recordSink) Trace(e obs.Event) { r.events = append(r.events, e) }

func (r *recordSink) kinds() []obs.Kind {
	ks := make([]obs.Kind, len(r.events))
	for i, e := range r.events {
		ks[i] = e.Kind
	}
	return ks
}

func (r *recordSink) find(k obs.Kind) *obs.Event {
	for i := range r.events {
		if r.events[i].Kind == k {
			return &r.events[i]
		}
	}
	return nil
}

func withSink(t *testing.T) *recordSink {
	t.Helper()
	s := &recordSink{}
	obs.SetTracer(s)
	t.Cleanup(func() { obs.SetTracer(nil) })
	return s
}

func kindsEqual(a, b []obs.Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTraceCommitEvent(t *testing.T) {
	sink := withSink(t)
	th := NewThread(&RealClock{}, 1)
	th.TraceID = 3
	v := NewVar(0).SetLabel("test.v")
	w := NewVar(0)
	MustAtomicT(t, th, func(tx *Tx) error {
		v.Set(tx, v.Get(tx)+1)
		_ = w.Get(tx)
		return nil
	})
	want := []obs.Kind{obs.KindTxBegin, obs.KindTxCommit}
	if !kindsEqual(sink.kinds(), want) {
		t.Fatalf("events = %v, want %v", sink.kinds(), want)
	}
	begin, commit := sink.events[0], sink.events[1]
	if begin.TxID == 0 || begin.TxID != commit.TxID {
		t.Fatalf("txids: begin=%d commit=%d", begin.TxID, commit.TxID)
	}
	if commit.CPU != 3 {
		t.Fatalf("commit CPU = %d, want 3", commit.CPU)
	}
	if commit.Reads != 2 || commit.Writes != 1 {
		t.Fatalf("commit sets: reads=%d writes=%d, want 2,1", commit.Reads, commit.Writes)
	}
	if commit.Dur == 0 || commit.Time <= begin.Time {
		t.Fatalf("commit timing: time=%d dur=%d begin=%d", commit.Time, commit.Dur, begin.Time)
	}
}

func TestTraceAbortAttribution(t *testing.T) {
	sink := withSink(t)
	th := NewThread(&RealClock{}, 1)
	hot := NewVar(0).SetLabel("counter.hot")
	other := NewVar(0)
	poked := false
	MustAtomicT(t, th, func(tx *Tx) error {
		_ = hot.Get(tx)
		if !poked {
			poked = true
			// A concurrent committer bumps the var we already read and
			// publishes a newer version of the next one; reading it
			// forces a failed extension → stale-read abort on hot.
			hot.SetCommitted(99)
			other.SetCommitted(5)
		}
		_ = other.Get(tx)
		return nil
	})
	want := []obs.Kind{
		obs.KindTxBegin, obs.KindTxAbort, obs.KindBackoff,
		obs.KindTxBegin, obs.KindTxCommit,
	}
	if !kindsEqual(sink.kinds(), want) {
		t.Fatalf("events = %v, want %v", sink.kinds(), want)
	}
	abort := sink.find(obs.KindTxAbort)
	if abort.Where != "counter.hot" {
		t.Fatalf("abort attributed to %q, want counter.hot", abort.Where)
	}
	if abort.Reason != "stale read" {
		t.Fatalf("abort reason = %q", abort.Reason)
	}
	commit := sink.find(obs.KindTxCommit)
	if commit.Attempt != 1 {
		t.Fatalf("commit attempt = %d, want 1", commit.Attempt)
	}
	if bo := sink.find(obs.KindBackoff); bo.Dur == 0 {
		t.Fatal("backoff event has zero duration")
	}
	if abort.TxID != commit.TxID {
		t.Fatalf("txid changed across retry: %d vs %d", abort.TxID, commit.TxID)
	}
}

func TestTraceUnlabelledVarFallback(t *testing.T) {
	sink := withSink(t)
	th := NewThread(&RealClock{}, 1)
	v := NewVar(0)
	poked := false
	other := NewVar(0)
	MustAtomicT(t, th, func(tx *Tx) error {
		_ = v.Get(tx)
		if !poked {
			poked = true
			v.SetCommitted(1)
			other.SetCommitted(2)
		}
		_ = other.Get(tx)
		return nil
	})
	abort := sink.find(obs.KindTxAbort)
	if abort == nil || len(abort.Where) < 5 || abort.Where[:4] != "var#" {
		t.Fatalf("unlabelled attribution = %+v, want var#<id>", abort)
	}
}

func TestTraceViolationEvent(t *testing.T) {
	sink := withSink(t)
	th := NewThread(&RealClock{}, 1)
	v := NewVar(0)
	violated := false
	MustAtomicT(t, th, func(tx *Tx) error {
		_ = v.Get(tx)
		if !violated {
			violated = true
			tx.Handle().Violate("TestMap: key conflict")
		}
		tx.Poll()
		return nil
	})
	ev := sink.find(obs.KindTxViolated)
	if ev == nil || ev.Reason != "TestMap: key conflict" {
		t.Fatalf("violation event = %+v", ev)
	}
}

func TestTraceNestedRetryEvent(t *testing.T) {
	sink := withSink(t)
	th := NewThread(&RealClock{}, 1)
	a := NewVar(0)
	inner := NewVar(0).SetLabel("nested.inner")
	fresh := NewVar(0)
	poked := false
	MustAtomicT(t, th, func(tx *Tx) error {
		_ = a.Get(tx)
		return tx.Nested(func() error {
			_ = inner.Get(tx)
			if !poked {
				poked = true
				// Invalidate the child's read and publish a newer
				// version of the next one: the failed extension rolls
				// back and retries only the nested body.
				inner.SetCommitted(7)
				fresh.SetCommitted(1)
				_ = fresh.Get(tx)
			}
			return nil
		})
	})
	want := []obs.Kind{
		obs.KindTxBegin, obs.KindNestedRetry, obs.KindBackoff, obs.KindTxCommit,
	}
	if !kindsEqual(sink.kinds(), want) {
		t.Fatalf("events = %v, want %v", sink.kinds(), want)
	}
	nr := sink.find(obs.KindNestedRetry)
	if nr.Where != "nested.inner" || nr.Reason != "stale read" {
		t.Fatalf("nested retry attribution = %+v", nr)
	}
}

func TestTraceOpenEvents(t *testing.T) {
	sink := withSink(t)
	th := NewThread(&RealClock{}, 1)
	MustAtomicT(t, th, func(tx *Tx) error {
		return tx.Open(func(o *Tx) error { return nil })
	})
	want := []obs.Kind{obs.KindTxBegin, obs.KindOpenCommit, obs.KindTxCommit}
	if !kindsEqual(sink.kinds(), want) {
		t.Fatalf("events = %v, want %v", sink.kinds(), want)
	}
	oc := sink.find(obs.KindOpenCommit)
	if oc.TxID != sink.events[0].TxID {
		t.Fatalf("open commit event = %+v", oc)
	}
}

func TestTraceLockedByCommitterCarriesOwnerTx(t *testing.T) {
	sink := withSink(t)
	th := NewThread(&RealClock{}, 1)
	v := NewVar(0).SetLabel("contended")
	other := NewVar(0)

	// Simulate a committer parked on v's lockword: lock it directly
	// with a handle that carries a txid, as the commit machinery would.
	holder := &Handle{txid: 4242}
	if !v.core.tryLock(holder) {
		t.Fatal("setup: tryLock failed")
	}
	poked := false
	MustAtomicT(t, th, func(tx *Tx) error {
		_ = other.Get(tx)
		if !poked {
			poked = true
			defer v.core.unlock() // release after the first doomed sample
		}
		_ = v.Get(tx)
		return nil
	})
	abort := sink.find(obs.KindTxAbort)
	if abort == nil || abort.Where != "contended" || abort.Reason != "locked by committer" {
		t.Fatalf("abort event = %+v", abort)
	}
	if abort.OtherTx != 4242 {
		t.Fatalf("abort OtherTx = %d, want 4242", abort.OtherTx)
	}
}

func TestTraceDisabledEmitsNothingAndAssignsNoIDs(t *testing.T) {
	th := NewThread(&RealClock{}, 1)
	v := NewVar(0)
	before := txIDs.Load()
	MustAtomicT(t, th, func(tx *Tx) error {
		v.Set(tx, 1)
		return nil
	})
	if txIDs.Load() != before {
		t.Fatal("txid assigned with tracing disabled")
	}
}

// MustAtomicT runs fn transactionally and fails the test on error.
func MustAtomicT(t *testing.T, th *Thread, fn func(tx *Tx) error) {
	t.Helper()
	if err := th.Atomic(fn); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
}
