package stm_test

// Microbenchmarks for the STM's hot paths, all with allocation
// reporting: the TL2 lockword fast path promises mutex-free reads and
// the Thread recycling pools promise an allocation-free retry loop.
// These benches are developer tools for looking at both; the numbers of
// record are the stm.* rungs of `go run ./bench`. The companion
// guardrail test pins the read-only allocation budget so a regression
// fails `go test`, not just a bench comparison.

import (
	"testing"
	"time"

	"tcc/internal/obs"
	"tcc/internal/obs/metrics"
	"tcc/internal/stm"
)

// newBenchThread returns a worker on the real clock with a fixed seed.
func newBenchThread() *stm.Thread {
	return stm.NewThread(&stm.RealClock{}, 1)
}

// BenchmarkSTMReadOnly4Var is the headline fast-path bench: a
// transaction that reads four vars and commits read-only. Unlocked
// reads are plain atomic loads, and a warm thread allocates nothing.
func BenchmarkSTMReadOnly4Var(b *testing.B) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}
}

// BenchmarkSTMSmallWriteSet measures a read-modify-write transaction
// over four vars: lockword CAS acquisition, read validation, and
// install of a 4-entry write set, below the index threshold.
func BenchmarkSTMSmallWriteSet(b *testing.B) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Set(tx, v.Get(tx)+1)
			}
			return nil
		})
	}
}

// BenchmarkSTMNestedCommit measures the closed-nesting machinery with
// no conflicts: pushing a recycled level, reading and writing under it,
// and merging it into the parent.
func BenchmarkSTMNestedCommit(b *testing.B) {
	v := stm.NewVar(0)
	w := stm.NewVar(0)
	th := newBenchThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = th.Atomic(func(tx *stm.Tx) error {
			v.Get(tx)
			return tx.Nested(func() error {
				w.Set(tx, w.Get(tx)+1)
				return nil
			})
		})
	}
}

// BenchmarkSTMNestedRetry measures one full nested-retry cycle: the
// child observes a conflicting commit (performed by a helper worker on
// its own goroutine, handshaken over channels so every iteration
// retries exactly once), partially rolls back, extends the snapshot,
// and succeeds on the second attempt. Reported allocations include the
// helper's committing transaction.
func BenchmarkSTMNestedRetry(b *testing.B) {
	a := stm.NewVar(0)
	v := stm.NewVar(0)
	w := stm.NewVar(0)
	th := newBenchThread()
	helper := stm.NewThread(&stm.RealClock{}, 2)
	start := make(chan struct{})
	done := make(chan struct{})
	go func() {
		for range start {
			_ = helper.Atomic(func(tx *stm.Tx) error {
				v.Set(tx, v.Get(tx)+1)
				w.Set(tx, w.Get(tx)+1)
				return nil
			})
			done <- struct{}{}
		}
	}()
	defer close(start)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := true
		_ = th.Atomic(func(tx *stm.Tx) error {
			a.Get(tx) // parent-level read that stays valid across the conflict
			return tx.Nested(func() error {
				v.Get(tx)
				if first {
					// A conflicting commit to (v, w) lands between the
					// child's read of v and its read of w: reading w then
					// fails validation, the child retries, the parent
					// does not.
					first = false
					start <- struct{}{}
					<-done
				}
				w.Get(tx)
				return nil
			})
		})
	}
	b.StopTimer()
	if th.Stats.NestedRetries < uint64(b.N) {
		b.Fatalf("expected >= %d nested retries, got %d", b.N, th.Stats.NestedRetries)
	}
}

// BenchmarkSTMOpenNestedCommit measures an open-nested section that
// takes its guard and registers a commit handler under it — the paper's
// semantic-lock acquisition shape.
func BenchmarkSTMOpenNestedCommit(b *testing.B) {
	g := stm.NewGuard()
	th := newBenchThread()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = th.Atomic(func(tx *stm.Tx) error {
			return tx.Open(func(o *stm.Tx) error {
				g.Lock()
				g.Unlock()
				o.OnCommitGuarded(g, nop)
				return nil
			})
		})
	}
}

// BenchmarkSTMDisjointCommit measures the sharded commit protocol's
// no-contention path: every worker owns a private guard and registers a
// commit handler on it, so the guard footprints are pairwise disjoint
// and commits never queue behind one another. Under the old global
// commitMu every handler-bearing commit serialized here regardless of
// footprint.
func BenchmarkSTMDisjointCommit(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := stm.NewVar(0)
		g := stm.NewGuard()
		th := newBenchThread()
		nop := func() {}
		for pb.Next() {
			_ = th.Atomic(func(tx *stm.Tx) error {
				v.Set(tx, v.Get(tx)+1)
				tx.OnCommitGuarded(g, nop)
				return nil
			})
		}
	})
}

// BenchmarkSTMGuardedCommitContended is the adversarial counterpart of
// BenchmarkSTMDisjointCommit: every worker registers its handler on ONE
// shared guard, reproducing the old global-guard regime. The gap
// between the two benches is the price of footprint overlap — and the
// bound the sharding removes for disjoint workloads.
func BenchmarkSTMGuardedCommitContended(b *testing.B) {
	g := stm.NewGuard()
	nop := func() {}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := stm.NewVar(0)
		th := newBenchThread()
		for pb.Next() {
			_ = th.Atomic(func(tx *stm.Tx) error {
				v.Set(tx, v.Get(tx)+1)
				tx.OnCommitGuarded(g, nop)
				return nil
			})
		}
	})
}

// BenchmarkSTMDisjointHandlerWindow is the demonstration bench for
// commit-guard sharding on any core count: 8 parallel workers commit
// transactions whose commit handlers each sleep 50µs under a private
// guard. Handler windows that block (I/O-shaped work) expose the
// serialization directly — with a single global guard the windows
// cannot overlap and an op costs ~8×50µs ≥ 400µs; with per-worker
// guards the sleeps overlap and the per-op cost approaches the 50µs
// handler floor even on one CPU, because sleeping goroutines yield the
// processor.
func BenchmarkSTMDisjointHandlerWindow(b *testing.B) {
	b.SetParallelism(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := stm.NewVar(0)
		g := stm.NewGuard()
		th := newBenchThread()
		handler := func() { time.Sleep(50 * time.Microsecond) }
		for pb.Next() {
			_ = th.Atomic(func(tx *stm.Tx) error {
				v.Set(tx, v.Get(tx)+1)
				tx.OnCommitGuarded(g, handler)
				return nil
			})
		}
	})
}

// TestReadOnlyAllocationGuardrail pins the allocation budget of the
// recycled fast path: after warmup, a read-only 4-var transaction
// allocates nothing (AllocsPerRun's average is integral, so a rare pool
// growth rounds away). Before the lockword and recycling work this path
// cost 6 allocations, and 1 more while each attempt minted a fresh
// Handle; until the budget was pinned at what it measures, 1 was allowed.
func TestReadOnlyAllocationGuardrail(t *testing.T) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	// The budget assumes the tracing fast path: with no tracer installed
	// a transaction must not pay for observability (no txid assignment,
	// no event structs).
	if obs.Active() != nil {
		t.Fatal("guardrail requires tracing disabled")
	}
	run := func() {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}
	run() // warm the level pool
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Fatalf("read-only 4-var transaction allocates %.1f objects/run, budget is 0", got)
	}
}

// TestTracerDisableRestoresAllocBudget checks that observability is
// pay-as-you-go in both directions: enabling a Profile tracer and then
// disabling it leaves the read-only fast path back inside the untraced
// allocation budget — no residual per-transaction cost sticks to the
// recycled Tx objects.
func TestTracerDisableRestoresAllocBudget(t *testing.T) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	run := func() {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}
	prof := obs.NewProfile()
	obs.SetTracer(prof)
	for i := 0; i < 50; i++ {
		run()
	}
	obs.SetTracer(nil)
	if prof.Report().Commits == 0 {
		t.Fatal("profile saw no commits while enabled")
	}
	run() // warm pools in the disabled regime
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Fatalf("after disabling tracer, read-only transaction allocates %.1f objects/run, budget is 0", got)
	}
}

// BenchmarkSTMReadOnly4VarProfiled is the enabled-tracer counterpart of
// BenchmarkSTMReadOnly4Var: same transaction with a Profile sink
// installed, to show what turning observability on costs the fast path
// (two events plus two histogram observes per commit).
func BenchmarkSTMReadOnly4VarProfiled(b *testing.B) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	obs.SetTracer(obs.NewProfile())
	defer obs.SetTracer(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}
}

// BenchmarkSTMSnapshotReadOnly4Var is the MVCC-lite counterpart of
// BenchmarkSTMReadOnly4Var: the same four reads under AtomicRead ride
// the snapshot path — no lockword sampling, no read-set
// bookkeeping, no validation, and a commit that publishes nothing. The
// gap between the two benches is the per-transaction price of the
// retry machinery on a read-only workload.
func BenchmarkSTMSnapshotReadOnly4Var(b *testing.B) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = th.AtomicRead(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}
	b.StopTimer()
	if th.Stats.SnapshotFallbacks != 0 {
		b.Fatalf("snapshot bench fell back %d times", th.Stats.SnapshotFallbacks)
	}
}

// TestSnapshotReadOnlyAllocationGuardrail pins the snapshot path's
// allocation budget at zero: with the Tx, level, and Handle
// all recycled through the Thread and no read set recorded, a warmed
// 4-var AtomicRead must not touch the heap at all.
func TestSnapshotReadOnlyAllocationGuardrail(t *testing.T) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	if obs.Active() != nil {
		t.Fatal("guardrail requires tracing disabled")
	}
	run := func() {
		_ = th.AtomicRead(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}
	run() // warm the level pool
	if got := testing.AllocsPerRun(100, run); got > 0 {
		t.Fatalf("snapshot read-only 4-var transaction allocates %.1f objects/run, budget is 0", got)
	}
	if th.Stats.SnapshotFallbacks != 0 {
		t.Fatalf("guardrail runs fell back %d times", th.Stats.SnapshotFallbacks)
	}
}

// TestSmallWriteAllocationGuardrail pins the write path: a 4-var
// read-modify-write allocates one immutable value box per
// installed write (boxes cannot be recycled — concurrent readers may
// still hold them), and up to one interface conversion per Set once
// the values leave the runtime's small-int cache.
func TestSmallWriteAllocationGuardrail(t *testing.T) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	run := func() {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Set(tx, v.Get(tx)+1)
			}
			return nil
		})
	}
	run()
	// 4 Set boxings + 4 install boxes = 8.
	if got := testing.AllocsPerRun(1000, run); got > 8 {
		t.Fatalf("4-var write transaction allocates %.1f objects/run, budget is 8", got)
	}
}

// TestNestingAllocationGuardrail pins what nesting costs: nothing. A
// child is a level from the thread's pool pushed on the thread's one Tx,
// an Open section runs on the current level, and every attempt runs under
// the thread's one Handle, so after warm-up a transaction allocates
// nothing however deep it nests.
func TestNestingAllocationGuardrail(t *testing.T) {
	if obs.Active() != nil {
		t.Fatal("guardrail requires tracing disabled")
	}
	// Bodies are built once, outside the measured runs: the transaction in
	// scope reaches the closed-nested ones through cur.
	var cur *stm.Tx
	empty := func() error { return nil }
	open := func(o *stm.Tx) error { return nil }
	nestedOpen := func() error { return cur.Open(open) }
	bodies := []struct {
		name string
		body func(tx *stm.Tx) error
	}{
		{"Atomic{Open{}}", func(tx *stm.Tx) error { return tx.Open(open) }},
		{"Atomic{Nested{}}", func(tx *stm.Tx) error { return tx.Nested(empty) }},
		{"Atomic{Open{Nested{Open{}}}}", func(tx *stm.Tx) error {
			cur = tx
			return tx.Open(func(o *stm.Tx) error { return o.Nested(nestedOpen) })
		}},
	}
	for _, b := range bodies {
		th := newBenchThread()
		run := func() { _ = th.Atomic(b.body) }
		run() // warm the level pool
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("%s allocates %.1f objects/run, want 0", b.name, got)
		}
	}
}

// TestMetricsOnWriteAllocationGuardrail proves metric increments are
// allocation-free on the commit path: with the live metrics plane
// enabled, the 4-var write transaction stays inside the same 8-object
// budget as with metrics off — counting is a per-attempt bool capture,
// field stores, and atomic adds into pre-registered instruments.
func TestMetricsOnWriteAllocationGuardrail(t *testing.T) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	if obs.Active() != nil {
		t.Fatal("guardrail requires tracing disabled")
	}
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(false)
	run := func() {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Set(tx, v.Get(tx)+1)
			}
			return nil
		})
	}
	run()
	if got := testing.AllocsPerRun(1000, run); got > 8 {
		t.Fatalf("with metrics on, 4-var write transaction allocates %.1f objects/run, budget is 8", got)
	}
}

// TestMetricsOnSnapshotAllocationGuardrail pins the strictest case:
// the snapshot read path's budget is zero, and enabling metrics —
// which adds a commit count, a snapshot-commit count, and a latency
// observation per transaction — must keep it at zero.
func TestMetricsOnSnapshotAllocationGuardrail(t *testing.T) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	if obs.Active() != nil {
		t.Fatal("guardrail requires tracing disabled")
	}
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(false)
	run := func() {
		_ = th.AtomicRead(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}
	run()
	if got := testing.AllocsPerRun(100, run); got > 0 {
		t.Fatalf("with metrics on, snapshot read-only transaction allocates %.1f objects/run, budget is 0", got)
	}
	if th.Stats.SnapshotFallbacks != 0 {
		t.Fatalf("guardrail runs fell back %d times", th.Stats.SnapshotFallbacks)
	}
}

// TestMetricsDisableRestoresFastPath mirrors the tracer's guarantee in
// the other direction: after enabling and disabling the metrics plane,
// the read-only path is back inside its untraced budget and the
// registry actually saw the enabled-phase commits.
func TestMetricsDisableRestoresFastPath(t *testing.T) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	run := func() {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}
	commits := metrics.Default.Counter(metrics.StmCommits, "Committed top-level transactions")
	before := commits.Total()
	metrics.SetEnabled(true)
	for i := 0; i < 50; i++ {
		run()
	}
	metrics.SetEnabled(false)
	if commits.Total() < before+50 {
		t.Fatalf("registry saw %d commits while enabled, want >= 50", commits.Total()-before)
	}
	run() // warm pools in the disabled regime
	if got := testing.AllocsPerRun(100, run); got > 1 {
		t.Fatalf("after disabling metrics, read-only transaction allocates %.1f objects/run, budget is 1", got)
	}
}

// BenchmarkSTMSmallWriteSetMetricsOn is BenchmarkSTMSmallWriteSet with
// the live metrics plane enabled, to show the enabled-vs-disabled delta
// of the commit-path counting (a handful of atomic adds plus one
// windowed histogram observe per commit).
func BenchmarkSTMSmallWriteSetMetricsOn(b *testing.B) {
	var vars [4]*stm.Var[int]
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	th := newBenchThread()
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = th.Atomic(func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Set(tx, v.Get(tx)+1)
			}
			return nil
		})
	}
}
