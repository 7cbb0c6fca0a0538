package tcc

// The figure benchmarks run the paper's evaluation sweeps on the
// deterministic virtual-CPU simulator and expose the headline speedups
// as custom benchmark metrics (e.g. "java@32x", "tcc@32x"), so
// `go test -bench .` regenerates the numbers behind every figure. The
// ablation benchmarks measure the §5.1 design choices. The
// BenchmarkSTMHot* pairs are the wall-clock striping demonstrations
// (sleeping handlers; the simulator charges nothing for a guard hold).
// Per-operation wall-clock costs are the layer ladder of `go run ./bench`.

import (
	"sync/atomic"
	"testing"
	"time"

	"tcc/internal/collections"
	"tcc/internal/core"
	"tcc/internal/harness"
	"tcc/internal/jbb"
	"tcc/internal/stm"
	"tcc/internal/stmcol"
)

// benchCPUs is a reduced sweep (the full 1..32 sweep is tccbench's job;
// benches report the endpoints that characterize each figure's shape).
var benchCPUs = []int{1, 32}

func reportFigure(b *testing.B, fig harness.Figure, short []string) {
	for i, s := range fig.Series {
		b.ReportMetric(s.Speedup[32], short[i]+"@32x")
	}
}

// BenchmarkFigure1 regenerates TestMap: Java HashMap vs Atomos HashMap
// vs Atomos TransactionalMap.
func BenchmarkFigure1(b *testing.B) {
	p := harness.DefaultMapParams()
	p.TotalOps = 2048
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.RunFigure("TestMap", harness.TestMapConfigs(p), benchCPUs, p.TotalOps, 7)
	}
	reportFigure(b, fig, []string{"java", "atomos", "tcc"})
}

// BenchmarkFigure2 regenerates TestSortedMap: Java TreeMap vs Atomos
// TreeMap vs Atomos TransactionalSortedMap.
func BenchmarkFigure2(b *testing.B) {
	p := harness.DefaultMapParams()
	p.TotalOps = 2048
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.RunFigure("TestSortedMap", harness.TestSortedMapConfigs(p), benchCPUs, p.TotalOps, 7)
	}
	reportFigure(b, fig, []string{"java", "atomos", "tcc"})
}

// BenchmarkFigure3 regenerates TestCompound: composed operations under
// a coarse lock vs inside one transaction.
func BenchmarkFigure3(b *testing.B) {
	p := harness.DefaultMapParams()
	p.TotalOps = 2048
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.RunFigure("TestCompound", harness.TestCompoundConfigs(p), benchCPUs, p.TotalOps, 7)
	}
	reportFigure(b, fig, []string{"java", "atomos", "tcc"})
}

// BenchmarkFigureDisjoint sweeps the commit-guard sharding pair: one
// shared TransactionalMap (overlapping guard footprints and keyspace)
// against per-worker private maps (pairwise-disjoint footprints). The
// disjoint line scales near-linearly because nothing — neither the
// optimistic read/write sets nor, since the guards were sharded, the
// commit handlers — is shared between workers.
func BenchmarkFigureDisjoint(b *testing.B) {
	p := harness.DefaultMapParams()
	p.TotalOps = 2048
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.RunFigure("TestDisjoint", harness.DisjointMapConfigs(p), benchCPUs, p.TotalOps, 7)
	}
	reportFigure(b, fig, []string{"shared", "disjoint"})
}

// BenchmarkFigureStriped sweeps the intra-collection striping pair
// (tccbench figure 5): one shared map, per-worker disjoint key ranges,
// single-guard baseline vs 16-stripe map.
func BenchmarkFigureStriped(b *testing.B) {
	p := harness.DefaultMapParams()
	p.TotalOps = 2048
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.RunFigure("TestStripedMap", harness.StripedMapConfigs(p), benchCPUs, p.TotalOps, 7)
	}
	reportFigure(b, fig, []string{"single", "striped"})
}

// BenchmarkFigureReadRatio sweeps the 99%-read snapshot pairing
// (tccbench figure 7): each structure's lookups run once on the retry
// path and once as MVCC-lite snapshot transactions.
func BenchmarkFigureReadRatio(b *testing.B) {
	p := harness.ReadRatioParams(99)
	p.TotalOps = 2048
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.RunFigure("TestMapRead99", harness.ReadRatioConfigs(p), benchCPUs, p.TotalOps, 7)
	}
	reportFigure(b, fig, []string{"atomosRetry", "atomosSnap", "tccRetry", "tccSnap"})
}

// hotMapDisjointKeys is the wall-clock demonstration for
// intra-collection striping, the map-level sequel to
// stm.BenchmarkSTMDisjointHandlerWindow: 8 workers hammer ONE shared
// map, each on its own key, and each commit carries a 50µs sleeping
// handler under that key's stripe guard (I/O-shaped post-commit work).
// On the single-guard map every handler window — the map's own commit
// handler and the sleep — serializes behind the one instance guard, so
// an op costs ~8×50µs; on the striped map the workers' keys live on
// distinct stripes, the windows overlap, and the per-op cost approaches
// the 50µs floor even on one CPU, because sleeping goroutines yield.
func hotMapDisjointKeys(b *testing.B, tm *core.TransactionalMap[int, int]) {
	const workers = 8
	// One key per worker; when the map has at least `workers` stripes
	// the keys are chosen on pairwise-distinct stripes.
	keys := make([]int, 0, workers)
	seenStripe := make(map[int]bool)
	for k := 0; len(keys) < workers && k < 1<<16; k++ {
		si := tm.StripeOf(k)
		if tm.Stripes() >= workers && seenStripe[si] {
			continue
		}
		seenStripe[si] = true
		keys = append(keys, k)
	}
	var next atomic.Int64
	b.SetParallelism(workers)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		wkr := int(next.Add(1)-1) % workers
		k := keys[wkr]
		g := tm.StripeGuard(k)
		th := stm.NewThread(&stm.RealClock{}, int64(wkr+1))
		handler := func() { time.Sleep(50 * time.Microsecond) }
		v := 0
		for pb.Next() {
			v++
			_ = th.Atomic(func(tx *stm.Tx) error {
				tm.Put(tx, k, v)
				tx.OnCommitGuarded(g, handler)
				return nil
			})
		}
	})
}

// BenchmarkSTMHotMapDisjointKeys is the tentpole target: disjoint-key
// writers on one striped map commit in parallel.
func BenchmarkSTMHotMapDisjointKeys(b *testing.B) {
	hotMapDisjointKeys(b, core.NewStripedTransactionalMap[int, int](func() collections.Map[int, int] {
		return collections.NewHashMap[int, int]()
	}, core.DefaultStripes))
}

// BenchmarkSTMHotMapDisjointKeysSingleGuard is the pre-striping
// baseline: the same workload against a single-guard TransactionalMap.
func BenchmarkSTMHotMapDisjointKeysSingleGuard(b *testing.B) {
	hotMapDisjointKeys(b, core.NewTransactionalMap[int, int](collections.NewHashMap[int, int]()))
}

// hotSortedMapDisjointRanges is the sorted-map sequel to
// hotMapDisjointKeys: 8 workers hammer ONE shared sorted map, each
// confined to its own key range, and each commit carries a 50µs
// sleeping handler under that range's stripe guard. On the single-guard
// sorted map every window serializes; on the range-striped map the
// workers' intervals live on distinct stripes and the windows overlap.
func hotSortedMapDisjointRanges(b *testing.B, tm *core.TransactionalSortedMap[int, int]) {
	const workers = 8
	var next atomic.Int64
	b.SetParallelism(workers)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		wkr := int(next.Add(1)-1) % workers
		base := wkr * 1024 // worker w owns [w*1024, (w+1)*1024)
		g := tm.StripeGuard(base)
		th := stm.NewThread(&stm.RealClock{}, int64(wkr+1))
		handler := func() { time.Sleep(50 * time.Microsecond) }
		v := 0
		for pb.Next() {
			v++
			_ = th.Atomic(func(tx *stm.Tx) error {
				tm.Put(tx, base+v&1023, v)
				tx.OnCommitGuarded(g, handler)
				return nil
			})
		}
	})
}

// sortedBenchBoundaries splits the 8 workers' 1024-key intervals onto
// distinct stripes.
var sortedBenchBoundaries = []int{1024, 2048, 3072, 4096, 5120, 6144, 7168}

// BenchmarkSTMHotSortedMap is the tentpole target: disjoint-range
// writers on one range-striped sorted map commit in parallel.
func BenchmarkSTMHotSortedMap(b *testing.B) {
	hotSortedMapDisjointRanges(b, core.NewRangeStripedTransactionalSortedMap[int, int](func() collections.SortedMap[int, int] {
		return collections.NewTreeMap[int, int]()
	}, sortedBenchBoundaries))
}

// BenchmarkSTMHotSortedMapSingleGuard is the pre-striping baseline: the
// same workload against a single-guard TransactionalSortedMap.
func BenchmarkSTMHotSortedMapSingleGuard(b *testing.B) {
	hotSortedMapDisjointRanges(b, core.NewTransactionalSortedMap[int, int](collections.NewTreeMap[int, int]()))
}

// hotQueueDisjointLanes is the companion queue demonstration: 8
// producers each append to their own lane, every commit carrying a 50µs
// sleeping handler under that lane's guard.
func hotQueueDisjointLanes(b *testing.B, q *core.TransactionalQueue[int], lanes int) {
	const workers = 8
	var next atomic.Int64
	b.SetParallelism(workers)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		wkr := int(next.Add(1)-1) % workers
		lane := wkr % lanes
		g := q.LaneGuard(lane)
		th := stm.NewThread(&stm.RealClock{}, int64(wkr+1))
		handler := func() { time.Sleep(50 * time.Microsecond) }
		for pb.Next() {
			_ = th.Atomic(func(tx *stm.Tx) error {
				q.PutLane(tx, lane, wkr)
				tx.OnCommitGuarded(g, handler)
				return nil
			})
		}
	})
}

// BenchmarkSTMHotQueueDisjointLanes: disjoint-lane producers on one
// segmented queue commit in parallel.
func BenchmarkSTMHotQueueDisjointLanes(b *testing.B) {
	hotQueueDisjointLanes(b, core.NewSegmentedTransactionalQueue[int](func() collections.Queue[int] {
		return collections.NewLinkedQueue[int]()
	}, 8), 8)
}

// BenchmarkSTMHotQueueDisjointLanesSingleLane is the pre-segmentation
// baseline: the same workload against a single-lane queue.
func BenchmarkSTMHotQueueDisjointLanesSingleLane(b *testing.B) {
	hotQueueDisjointLanes(b, core.NewTransactionalQueue[int](collections.NewLinkedQueue[int]()), 1)
}

// BenchmarkFigure4 regenerates the single-warehouse SPECjbb2000 sweep
// across the four configurations.
func BenchmarkFigure4(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = jbb.RunFigure4(benchCPUs, 2048, jbb.DefaultParams(), 11)
	}
	reportFigure(b, fig, []string{"java", "baseline", "open", "tcc"})
}

// ablationRun measures `ops` transactions of `body` across 16 virtual
// CPUs and returns the run's result (virtual makespan + stats).
func ablationRunFull(ops int, setup func(pl harness.Platform) func(w *harness.Worker)) harness.Result {
	pl := &harness.SimPlatform{Seed: 5}
	exec := setup(pl)
	const cpus = 16
	return pl.Run(cpus, func(w *harness.Worker) {
		for i := 0; i < ops/cpus; i++ {
			exec(w)
		}
	})
}

// ablationRun is ablationRunFull reduced to the simulated makespan.
func ablationRun(ops int, setup func(pl harness.Platform) func(w *harness.Worker)) float64 {
	return ablationRunFull(ops, setup).Elapsed
}

// BenchmarkAblationIsEmpty reproduces the §5.1 example: transactions
// running "if !m.IsEmpty() { m.Put(freshKey, v) }" on a non-empty map
// commute under the empty-transition lock but serialize when isEmpty is
// derived from size.
func BenchmarkAblationIsEmpty(b *testing.B) {
	mk := func(viaSize bool) func(pl harness.Platform) func(w *harness.Worker) {
		return func(pl harness.Platform) func(w *harness.Worker) {
			tm := core.NewTransactionalMap[int, int](collections.NewHashMap[int, int]())
			tm.SetIsEmptyViaSize(viaSize)
			th := stm.NewThread(&stm.RealClock{}, 1)
			_ = th.Atomic(func(tx *stm.Tx) error {
				tm.Put(tx, -1, 0)
				return nil
			})
			return func(w *harness.Worker) {
				k := w.Index<<20 | w.RNG.Intn(1<<20)
				_ = w.Thread.Atomic(func(tx *stm.Tx) error {
					w.Compute(500)
					if !tm.IsEmpty(tx) {
						tm.Put(tx, k, 1)
					}
					w.Compute(500)
					return nil
				})
			}
		}
	}
	var emptyLock, sizeLock float64
	for i := 0; i < b.N; i++ {
		emptyLock = ablationRun(1024, mk(false))
		sizeLock = ablationRun(1024, mk(true))
	}
	b.ReportMetric(sizeLock/emptyLock, "sizeLockSlowdown")
}

// BenchmarkAblationBlindPut reproduces the "LastModified" example:
// value-returning puts to one shared key order all writers, blind puts
// commute.
func BenchmarkAblationBlindPut(b *testing.B) {
	mk := func(blind bool) func(pl harness.Platform) func(w *harness.Worker) {
		return func(pl harness.Platform) func(w *harness.Worker) {
			tm := core.NewTransactionalMap[string, int](collections.NewHashMap[string, int]())
			return func(w *harness.Worker) {
				stamp := w.RNG.Int()
				_ = w.Thread.Atomic(func(tx *stm.Tx) error {
					w.Compute(500)
					if blind {
						tm.PutUnread(tx, "LastModified", stamp)
					} else {
						tm.Put(tx, "LastModified", stamp)
					}
					w.Compute(500)
					return nil
				})
			}
		}
	}
	var blind, reading float64
	for i := 0; i < b.N; i++ {
		blind = ablationRun(1024, mk(true))
		reading = ablationRun(1024, mk(false))
	}
	b.ReportMetric(reading/blind, "readingPutSlowdown")
}

// BenchmarkAblationSegmented measures the §2.4 claim that a segmented
// ConcurrentHashMap-style table only statistically reduces conflicts
// inside long transactions: a transaction touching several keys almost
// always shares a segment (and its size field) with a concurrent one.
func BenchmarkAblationSegmented(b *testing.B) {
	const keysPerTx = 8
	segmented := func(pl harness.Platform) func(w *harness.Worker) {
		m := stmcol.NewSegmentedHashMap[int, int](16)
		return func(w *harness.Worker) {
			var keys [keysPerTx]int
			for i := range keys {
				keys[i] = w.RNG.Intn(1 << 20)
			}
			_ = w.Thread.Atomic(func(tx *stm.Tx) error {
				w.Compute(500)
				for _, k := range keys {
					m.Put(tx, k, k)
				}
				w.Compute(500)
				return nil
			})
		}
	}
	wrapped := func(pl harness.Platform) func(w *harness.Worker) {
		tm := core.NewTransactionalMap[int, int](collections.NewHashMap[int, int]())
		return func(w *harness.Worker) {
			var keys [keysPerTx]int
			for i := range keys {
				keys[i] = w.RNG.Intn(1 << 20)
			}
			_ = w.Thread.Atomic(func(tx *stm.Tx) error {
				w.Compute(500)
				for _, k := range keys {
					tm.Put(tx, k, k)
				}
				w.Compute(500)
				return nil
			})
		}
	}
	var seg, wrap float64
	for i := 0; i < b.N; i++ {
		seg = ablationRun(1024, segmented)
		wrap = ablationRun(1024, wrapped)
	}
	b.ReportMetric(seg/wrap, "segmentedSlowdown")
}

// BenchmarkAblationEagerWriteCheck compares commit-time (optimistic)
// semantic conflict detection against the §5.1 pessimistic alternative
// where writes abort conflicting readers at operation time.
func BenchmarkAblationEagerWriteCheck(b *testing.B) {
	mk := func(eager bool) func(pl harness.Platform) func(w *harness.Worker) {
		return func(pl harness.Platform) func(w *harness.Worker) {
			tm := core.NewTransactionalMap[int, int](collections.NewHashMap[int, int]())
			tm.SetEagerWriteCheck(eager)
			th := stm.NewThread(&stm.RealClock{}, 1)
			_ = th.Atomic(func(tx *stm.Tx) error {
				for k := 0; k < 16; k++ {
					tm.Put(tx, k, 0)
				}
				return nil
			})
			return func(w *harness.Worker) {
				k := w.RNG.Intn(16)
				write := w.RNG.Intn(100) < 20
				_ = w.Thread.Atomic(func(tx *stm.Tx) error {
					w.Compute(300)
					if write {
						v, _ := tm.Get(tx, k)
						tm.Put(tx, k, v+1)
					} else {
						tm.Get(tx, k)
					}
					w.Compute(700)
					return nil
				})
			}
		}
	}
	var lazy, eager float64
	for i := 0; i < b.N; i++ {
		lazy = ablationRun(1024, mk(false))
		eager = ablationRun(1024, mk(true))
	}
	b.ReportMetric(eager/lazy, "eagerVsLazy")
}

// BenchmarkAblationContentionManagement compares backoff policies under
// genuine livelock pressure: an eager-write-check map (pessimistic
// conflict detection, the other §5.1 alternative) with every worker
// doing read-modify-writes of one key. Under eager detection each
// writer kills the other in-flight readers at operation time, so
// symmetric transactions can ping-pong; randomized exponential backoff
// breaks the symmetry, aggressive retry re-collides immediately.
func BenchmarkAblationContentionManagement(b *testing.B) {
	mk := func(policy stm.BackoffPolicy) func(pl harness.Platform) func(w *harness.Worker) {
		return func(pl harness.Platform) func(w *harness.Worker) {
			tm := core.NewTransactionalMap[int, int](collections.NewHashMap[int, int]())
			tm.SetEagerWriteCheck(true)
			th := stm.NewThread(&stm.RealClock{}, 1)
			_ = th.Atomic(func(tx *stm.Tx) error {
				tm.Put(tx, 0, 0)
				return nil
			})
			return func(w *harness.Worker) {
				if policy != nil {
					w.Thread.SetBackoffPolicy(policy)
				}
				_ = w.Thread.Atomic(func(tx *stm.Tx) error {
					v, _ := tm.Get(tx, 0)
					w.Compute(500) // hold the read lock across computation
					tm.Put(tx, 0, v+1)
					return nil
				})
			}
		}
	}
	var exp, agg harness.Result
	for i := 0; i < b.N; i++ {
		exp = ablationRunFull(512, mk(nil))
		agg = ablationRunFull(512, mk(stm.AggressiveRetry{}))
	}
	b.ReportMetric(agg.Elapsed/exp.Elapsed, "aggressiveVsExpTime")
	b.ReportMetric(float64(agg.Stats.Violations)/float64(exp.Stats.Violations+1), "aggressiveWastedWorkX")
}

// BenchmarkJBBDistrictSensitivity sweeps the district count at 32
// virtual CPUs: SPECjbb's standard 10-districts-per-warehouse layout
// spreads the order-table contention, but the Baseline stays flat
// (warehouse-level counters) while Open improves — separating the two
// fixes the paper applies.
func BenchmarkJBBDistrictSensitivity(b *testing.B) {
	run := func(cfg jbb.Config, districts int) float64 {
		p := jbb.DefaultParams()
		p.Districts = districts
		pl := &harness.SimPlatform{Seed: 12}
		var wh jbb.Warehouse
		if cfg == jbb.ConfigJava {
			wh = jbb.NewJavaWarehouse(p, pl)
		} else {
			wh = jbb.NewAtomosWarehouse(cfg, p)
		}
		res := pl.Run(32, func(w *harness.Worker) {
			for i := 0; i < 64; i++ {
				wh.Do(w, jbb.DrawOp(w))
			}
		})
		return res.Elapsed
	}
	var base1, base10, open1, open10, trans1, trans10 float64
	for i := 0; i < b.N; i++ {
		base1 = run(jbb.ConfigAtomosBaseline, 1)
		base10 = run(jbb.ConfigAtomosBaseline, 10)
		open1 = run(jbb.ConfigAtomosOpen, 1)
		open10 = run(jbb.ConfigAtomosOpen, 10)
		trans1 = run(jbb.ConfigAtomosTransactional, 1)
		trans10 = run(jbb.ConfigAtomosTransactional, 10)
	}
	b.ReportMetric(base1/base10, "baselineDistrictGain")
	b.ReportMetric(open1/open10, "openDistrictGain")
	b.ReportMetric(trans1/trans10, "transDistrictGain")
}
