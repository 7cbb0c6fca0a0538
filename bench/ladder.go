package main

// The ladder: the layer-cost ledger taken from outside. One worker, a
// fixed iteration count per rung, several repeats, the median reported.
// A rung's `_ns` is mean wall ns per iteration (the loop and one closure
// call included); `_allocs` is heap allocations per iteration. Rungs that
// pair two operations (putrm, enqdeq, putpoll, lockunlock, addrm) count
// the pair as one iteration. Closures handed to Atomic are built once per
// rung, so the numbers are the layer's and not the caller's.

import (
	"runtime"
	"time"

	"tcc/internal/collections"
	"tcc/internal/concurrent"
	"tcc/internal/core"
	"tcc/internal/harness"
	"tcc/internal/obs"
	"tcc/internal/obs/metrics"
	"tcc/internal/semlock"
	"tcc/internal/stm"
	"tcc/internal/stmcol"
)

// rung is one step of the ladder. prepare builds the rung's state and
// returns the function that runs n iterations, plus an optional restore.
type rung struct {
	name   string
	allocs bool
	// iters at full scale, sized so one repeat takes a few milliseconds.
	iters   int
	prepare func(th *stm.Thread) (run func(n int), restore func())
}

const ladderKeys = 4096

// calibRounds is the fixed pure-CPU yardstick behind host.calib_ns.
const calibRounds = 1_000_000

// spinSink keeps the results of timed loops alive.
var spinSink uint64

// calibrate times calibRounds of the think spin.
func calibrate() time.Duration {
	t0 := time.Now()
	spinSink = xorshift(spinSink|1, calibRounds)
	return time.Since(t0)
}

// perTx turns a transaction body into a rung runner: one Atomic per
// iteration, the iteration number in *i.
func perTx(th *stm.Thread, i *int, body func(tx *stm.Tx) error) func(n int) {
	return func(n int) {
		for *i = 0; *i < n; *i++ {
			harness.MustAtomic(th, body)
		}
	}
}

// twoTx runs two transactions per iteration (a Put then its Remove).
func twoTx(th *stm.Thread, i *int, first, second func(tx *stm.Tx) error) func(n int) {
	return func(n int) {
		for *i = 0; *i < n; *i++ {
			harness.MustAtomic(th, first)
			harness.MustAtomic(th, second)
		}
	}
}

func plain(op func(i int)) func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			op(i)
		}
	}
}

// halfFull inserts the even keys of [0, ladderKeys).
func halfFull(put func(k int)) {
	for k := 0; k < ladderKeys; k += 2 {
		put(k)
	}
}

// oddKey walks the absent (odd) keys so Put then Remove changes nothing.
func oddKey(i int) int { return (i*2 + 1) % ladderKeys }

func fillCore(th *stm.Thread, m mapStore) {
	if err := populateKeys(&stmExec{th: th}, m, ladderKeys); err != nil {
		panic(err) // no ladder body returns an error
	}
}

// stmRung builds the rungs that exercise internal/stm on four Vars.
func stmRung(name string, iters int, mk func(th *stm.Thread, vars []*stm.Var[int]) func(n int)) rung {
	return rung{name: name, allocs: true, iters: iters, prepare: func(th *stm.Thread) (func(int), func()) {
		vars := make([]*stm.Var[int], 4)
		for i := range vars {
			vars[i] = stm.NewVar(i)
		}
		return mk(th, vars), nil
	}}
}

func write1(th *stm.Thread, vars []*stm.Var[int]) func(n int) {
	var i int
	// Values past the runtime's small-integer cache, so every Set boxes.
	return perTx(th, &i, func(tx *stm.Tx) error { vars[0].Set(tx, i+1<<20); return nil })
}

// coreMapRung builds a per-transaction rung over a half-full core map.
func coreMapRung(name string, iters, stripes int, mk func(th *stm.Thread, m mapStore) func(n int)) rung {
	return rung{name: name, allocs: true, iters: iters, prepare: func(th *stm.Thread) (func(int), func()) {
		m := coreMap(stripes)
		fillCore(th, m)
		return mk(th, m), nil
	}}
}

func coreSortedRung(name string, iters, stripes int, mk func(th *stm.Thread, m sortedStore) func(n int)) rung {
	return rung{name: name, allocs: true, iters: iters, prepare: func(th *stm.Thread) (func(int), func()) {
		m := coreSortedMap(stripes, ladderKeys)
		fillCore(th, m)
		return mk(th, m), nil
	}}
}

func mapGet(th *stm.Thread, m mapStore) func(n int) {
	var i int
	return perTx(th, &i, func(tx *stm.Tx) error { m.Get(tx, i%ladderKeys); return nil })
}

func mapPutRm(th *stm.Thread, m mapStore) func(n int) {
	var i int
	return twoTx(th, &i,
		func(tx *stm.Tx) error { m.Put(tx, oddKey(i), i); return nil },
		func(tx *stm.Tx) error { m.Remove(tx, oddKey(i)); return nil })
}

func queuePutPoll(th *stm.Thread, q queueStore) func(n int) {
	var i int
	return twoTx(th, &i,
		func(tx *stm.Tx) error { q.Put(tx, i); return nil },
		func(tx *stm.Tx) error { q.Poll(tx); return nil })
}

func coreQueueRung(name string, lanes int) rung {
	return rung{name: name, allocs: true, iters: 2000, prepare: func(th *stm.Thread) (func(int), func()) {
		return queuePutPoll(th, coreQueue(lanes)), nil
	}}
}

// ladder lists every rung, bottom layer first.
var ladder = []rung{
	{name: "host.timer", iters: 200000, prepare: func(*stm.Thread) (func(int), func()) {
		base := time.Now()
		return plain(func(int) { spinSink += uint64(time.Since(base)) }), nil
	}},

	// internal/collections and internal/concurrent: the structures the
	// wrappers wrap, and the lock-based baselines.
	{name: "collections.hashmap_get", iters: 200000, prepare: func(*stm.Thread) (func(int), func()) {
		m := collections.NewHashMap[int, int]()
		halfFull(func(k int) { m.Put(k, k) })
		return plain(func(i int) { m.Get(i % ladderKeys) }), nil
	}},
	{name: "collections.hashmap_putrm", iters: 100000, prepare: func(*stm.Thread) (func(int), func()) {
		m := collections.NewHashMap[int, int]()
		halfFull(func(k int) { m.Put(k, k) })
		return plain(func(i int) { m.Put(oddKey(i), i); m.Remove(oddKey(i)) }), nil
	}},
	{name: "collections.treemap_get", iters: 100000, prepare: func(*stm.Thread) (func(int), func()) {
		m := collections.NewTreeMap[int, int]()
		halfFull(func(k int) { m.Put(k, k) })
		return plain(func(i int) { m.Get(i % ladderKeys) }), nil
	}},
	{name: "collections.treemap_putrm", iters: 50000, prepare: func(*stm.Thread) (func(int), func()) {
		m := collections.NewTreeMap[int, int]()
		halfFull(func(k int) { m.Put(k, k) })
		return plain(func(i int) { m.Put(oddKey(i), i); m.Remove(oddKey(i)) }), nil
	}},
	{name: "collections.queue_enqdeq", iters: 200000, prepare: func(*stm.Thread) (func(int), func()) {
		q := collections.NewLinkedQueue[int]()
		return plain(func(i int) { q.Enqueue(i); q.Dequeue() }), nil
	}},
	{name: "concurrent.syncmap_get", iters: 200000, prepare: func(*stm.Thread) (func(int), func()) {
		m := concurrent.NewSyncMap[int, int](collections.NewHashMap[int, int]())
		halfFull(func(k int) { m.Put(k, k) })
		return plain(func(i int) { m.Get(i % ladderKeys) }), nil
	}},
	{name: "concurrent.syncsorted_putrm", iters: 50000, prepare: func(*stm.Thread) (func(int), func()) {
		m := concurrent.NewSyncSortedMap[int, int](collections.NewTreeMap[int, int]())
		halfFull(func(k int) { m.Put(k, k) })
		return plain(func(i int) { m.Put(oddKey(i), i); m.Remove(oddKey(i)) }), nil
	}},
	{name: "concurrent.msqueue_enqdeq", iters: 100000, prepare: func(*stm.Thread) (func(int), func()) {
		q := concurrent.NewMSQueue[int]()
		return plain(func(i int) { q.Enqueue(i); q.Dequeue() }), nil
	}},

	// internal/stm: what one transaction costs before any collection.
	stmRung("stm.atomic_empty", 50000, func(th *stm.Thread, _ []*stm.Var[int]) func(int) {
		var i int
		return perTx(th, &i, func(*stm.Tx) error { return nil })
	}),
	stmRung("stm.read4", 30000, func(th *stm.Thread, vars []*stm.Var[int]) func(int) {
		var i int
		return perTx(th, &i, func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		})
	}),
	stmRung("stm.write1", 30000, write1),
	stmRung("stm.write4", 20000, func(th *stm.Thread, vars []*stm.Var[int]) func(int) {
		var i int
		return perTx(th, &i, func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Set(tx, i+1<<20)
			}
			return nil
		})
	}),
	stmRung("stm.snapread4", 50000, func(th *stm.Thread, vars []*stm.Var[int]) func(int) {
		body := func(tx *stm.Tx) error {
			for _, v := range vars {
				v.Get(tx)
			}
			return nil
		}
		return plain(func(int) { harness.MustAtomicRead(th, body) })
	}),
	stmRung("stm.nested_empty", 30000, func(th *stm.Thread, _ []*stm.Var[int]) func(int) {
		var i int
		inner := func() error { return nil }
		return perTx(th, &i, func(tx *stm.Tx) error { return tx.Nested(inner) })
	}),
	stmRung("stm.open_empty", 30000, func(th *stm.Thread, _ []*stm.Var[int]) func(int) {
		var i int
		inner := func(*stm.Tx) error { return nil }
		return perTx(th, &i, func(tx *stm.Tx) error { return tx.Open(inner) })
	}),
	stmRung("stm.handler_pair", 30000, func(th *stm.Thread, _ []*stm.Var[int]) func(int) {
		var i int
		g := stm.NewGuard()
		h := func() {}
		return perTx(th, &i, func(tx *stm.Tx) error {
			tx.OnCommitGuarded(g, h)
			tx.OnAbortGuarded(g, h)
			return nil
		})
	}),

	// internal/semlock: the lock tables alone. Owners are tx.Handle()
	// inside one long body, as the wrappers use them.
	{name: "semlock.key_lockunlock", allocs: true, iters: 100000, prepare: func(th *stm.Thread) (func(int), func()) {
		t := semlock.NewKeyTable[int]()
		return func(n int) {
			harness.MustAtomic(th, func(tx *stm.Tx) error {
				h := tx.Handle()
				for i := 0; i < n; i++ {
					t.Lock(i%ladderKeys, h)
					t.Unlock(i%ladderKeys, h)
				}
				return nil
			})
		}, nil
	}},
	{name: "semlock.key_violate", iters: 100000, prepare: func(th *stm.Thread) (func(int), func()) {
		t := semlock.NewKeyTable[int]()
		return func(n int) {
			harness.MustAtomic(th, func(tx *stm.Tx) error {
				h := tx.Handle()
				for k := 0; k < 64; k++ {
					t.Lock(k, h)
				}
				for i := 0; i < n; i++ {
					t.ViolateOthers(i%64, h, "ladder")
				}
				for k := 0; k < 64; k++ {
					t.Unlock(k, h)
				}
				return nil
			})
		}, nil
	}},
	{name: "semlock.owner_lockunlock", iters: 200000, prepare: func(th *stm.Thread) (func(int), func()) {
		s := semlock.NewOwnerSet()
		return func(n int) {
			harness.MustAtomic(th, func(tx *stm.Tx) error {
				h := tx.Handle()
				for i := 0; i < n; i++ {
					s.Lock(h)
					s.Unlock(h)
				}
				return nil
			})
		}, nil
	}},
	{name: "semlock.range_addrm", iters: 200000, prepare: func(th *stm.Thread) (func(int), func()) {
		t := semlock.NewRangeTable[int](func(a, b int) int { return a - b })
		lo, hi := 10, 20
		return func(n int) {
			harness.MustAtomic(th, func(tx *stm.Tx) error {
				e := &semlock.RangeEntry[int]{Lo: &lo, Hi: &hi, Owner: tx.Handle()}
				for i := 0; i < n; i++ {
					t.Add(e)
					t.Remove(e)
				}
				return nil
			})
		}, nil
	}},

	// internal/stmcol: every field a Var, one operation per transaction.
	{name: "stmcol.hashmap_get", allocs: true, iters: 20000, prepare: func(th *stm.Thread) (func(int), func()) {
		m := stmcol.NewHashMap[int, int]()
		fillCore(th, m)
		return mapGet(th, m), nil
	}},
	{name: "stmcol.hashmap_putrm", iters: 10000, prepare: func(th *stm.Thread) (func(int), func()) {
		m := stmcol.NewHashMap[int, int]()
		fillCore(th, m)
		return mapPutRm(th, m), nil
	}},
	{name: "stmcol.treemap_putrm", iters: 5000, prepare: func(th *stm.Thread) (func(int), func()) {
		m := stmSorted{stmcol.NewTreeMap[int, int]()}
		fillCore(th, m)
		return mapPutRm(th, m), nil
	}},
	{name: "stmcol.queue_enqdeq", iters: 10000, prepare: func(th *stm.Thread) (func(int), func()) {
		return queuePutPoll(th, stmQueue{stmcol.NewQueue[int]()}), nil
	}},

	// internal/core: the semantic wrappers, one operation per
	// transaction, 1 stripe beside the striped constructors.
	coreMapRung("core.map1_get", 4000, 1, mapGet),
	coreMapRung("core.map16_get", 4000, 16, mapGet),
	coreMapRung("core.map16_putrm", 2000, 16, mapPutRm),
	coreMapRung("core.map16_size", 2000, 16, func(th *stm.Thread, m mapStore) func(int) {
		var i int
		return perTx(th, &i, func(tx *stm.Tx) error { m.Size(tx); return nil })
	}),
	coreMapRung("core.map16_snapget", 10000, 16, func(th *stm.Thread, m mapStore) func(int) {
		var i int
		body := func(tx *stm.Tx) error { m.Get(tx, i%ladderKeys); return nil }
		return func(n int) {
			for i = 0; i < n; i++ {
				harness.MustAtomicRead(th, body)
			}
		}
	}),
	coreSortedRung("core.sorted1_putrm", 1000, 1, func(th *stm.Thread, m sortedStore) func(int) { return mapPutRm(th, m) }),
	coreSortedRung("core.sorted8_get", 4000, 8, func(th *stm.Thread, m sortedStore) func(int) { return mapGet(th, m) }),
	coreSortedRung("core.sorted8_putrm", 1000, 8, func(th *stm.Thread, m sortedStore) func(int) { return mapPutRm(th, m) }),
	coreSortedRung("core.sorted8_scan16", 1000, 8, func(th *stm.Thread, m sortedStore) func(int) {
		var i int
		visit := func(k, v int) bool { return true }
		return perTx(th, &i, func(tx *stm.Tx) error {
			lo := i * 61 % (ladderKeys - sortedScanSpan)
			m.Scan(tx, lo, lo+sortedScanSpan, visit)
			return nil
		})
	}),
	coreSortedRung("core.sorted8_ceiling", 2000, 8, func(th *stm.Thread, m sortedStore) func(int) {
		var i int
		return perTx(th, &i, func(tx *stm.Tx) error { m.CeilingKey(tx, oddKey(i)); return nil })
	}),
	coreSortedRung("core.sorted8_firstkey", 2000, 8, func(th *stm.Thread, m sortedStore) func(int) {
		var i int
		return perTx(th, &i, func(tx *stm.Tx) error { m.FirstKey(tx); return nil })
	}),
	coreQueueRung("core.queue1_putpoll", 1),
	coreQueueRung("core.queue4_putpoll", 4),
	{name: "core.counter_add", allocs: true, iters: 5000, prepare: func(th *stm.Thread) (func(int), func()) {
		var i int
		c := core.NewCounter(0)
		return perTx(th, &i, func(tx *stm.Tx) error { c.Add(tx, 1); return nil }), nil
	}},

	// internal/obs: stm.write1 again with each telemetry sink enabled.
	{name: "obs.trace_on_write1", iters: 30000, prepare: func(th *stm.Thread) (func(int), func()) {
		prev := obs.Active()
		obs.SetTracer(obs.NewProfile())
		vars := []*stm.Var[int]{stm.NewVar(0)}
		return write1(th, vars), func() { obs.SetTracer(prev) }
	}},
	{name: "obs.metrics_on_write1", iters: 30000, prepare: func(th *stm.Thread) (func(int), func()) {
		prev := metrics.On()
		metrics.SetEnabled(true)
		vars := []*stm.Var[int]{stm.NewVar(0)}
		return write1(th, vars), func() { metrics.SetEnabled(prev) }
	}},
}

// ladderDefs names the ladder's metrics: host.calib_ns, then `_ns` (and
// `_allocs` where kept) per rung.
func ladderDefs() []metricDef {
	out := []metricDef{{Name: "host.calib_ns", Unit: "ns", Better: "lower", Source: "ladder"}}
	for _, r := range ladder {
		out = append(out, metricDef{Name: r.name + "_ns", Unit: "ns", Better: "lower", Source: "ladder"})
		if r.allocs {
			out = append(out, metricDef{Name: r.name + "_allocs", Unit: "count", Better: "lower", Source: "ladder"})
		}
	}
	return out
}

// runLadder measures every rung reps times; div shrinks the iteration
// counts (the smoke run).
func runLadder(reps, div int) map[string]sample {
	out := map[string]sample{}
	for i := 0; i < reps; i++ {
		out["host.calib_ns"] = append(out["host.calib_ns"], float64(calibrate()))
	}
	th := stm.NewThread(&stm.RealClock{}, 1)
	var m0, m1 runtime.MemStats
	for _, r := range ladder {
		run, restore := r.prepare(th)
		n := max(r.iters/div, 16)
		run(min(n, 256)) // first-use set-up stays out of the repeats
		for i := 0; i < reps; i++ {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			run(n)
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			out[r.name+"_ns"] = append(out[r.name+"_ns"], float64(d)/float64(n))
			if r.allocs {
				out[r.name+"_allocs"] = append(out[r.name+"_allocs"], float64(m1.Mallocs-m0.Mallocs)/float64(n))
			}
		}
		if restore != nil {
			restore()
		}
	}
	return out
}
