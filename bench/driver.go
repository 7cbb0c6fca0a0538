package main

// The closed-loop driver: slices on real goroutines, the simulator pass,
// and the measurements taken around them.

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcc/internal/harness"
	"tcc/internal/stm"
)

// ticket is how many transactions a worker runs between looks at the
// clock (real slices) or at the shared counter (simulator).
const ticket = 64

// txWatchdog is the longest one transaction may take before it counts as
// failed; hangGrace is how long past its deadline a slice may run before
// the whole benchmark gives up.
const (
	txWatchdog = time.Second
	hangGrace  = 60 * time.Second
)

// maxWorkers caps W. There is no flag to raise it: goroutines beyond the
// host's CPUs measure the scheduler, not the collections.
const maxWorkers = 4

func workerCount() int { return min(runtime.NumCPU(), maxWorkers) }

// sliceCfg describes one slice: fresh state, a warm-up that is not
// recorded, then a measured window of fixed length.
type sliceCfg struct {
	def     workloadDef
	lay     layer
	workers int
	seed    int64
	proto   string
	warm    time.Duration
	dur     time.Duration
	// spanCap > 0 makes this the traced slice: that many spans are kept
	// per worker and the window ends early when a buffer fills.
	spanCap int
}

// sliceResult is what one slice measured.
type sliceResult struct {
	txs, failed int64
	txPerS      float64
	p50us       float64
	p99us       float64
	cpuUsPerTx  float64
	allocsPerTx float64
	bytesPerTx  float64
	// heapLiveKB is the post-GC heap with the state still alive, minus
	// the post-GC heap before it was built.
	heapLiveKB float64
	stats      stm.Stats
	recs       []*spanRec
	// invariant is the workload's check over everything the slice ran,
	// warm-up included; a failure fails every transaction of the slice.
	invariant error
}

// latBuffers are the per-worker latency buffers, allocated once per run
// and reused by every slice so measured windows never grow them.
type latBuffers [][]uint32

func newLatBuffers(workers int, longest time.Duration) latBuffers {
	// 1.5 M transactions per second and worker is three times what the
	// shortest workload reaches; beyond the capacity samples are
	// dropped, not grown into.
	n := min(int(longest.Seconds()*1.5e6)+4096, 1<<23)
	b := make(latBuffers, workers)
	for i := range b {
		b[i] = make([]uint32, 0, n)
	}
	return b
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSlice builds fresh state, warms it, measures one window and checks
// the invariants.
func runSlice(c sliceCfg, lat latBuffers) (sliceResult, error) {
	var r sliceResult
	pl := &harness.RealPlatform{Seed: c.seed, Protocol: c.proto}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	heap0 := m0.HeapAlloc
	if c.spanCap > 0 {
		r.recs = make([]*spanRec, c.workers)
		for i := range r.recs {
			r.recs[i] = newSpanRec(c.spanCap)
		}
	}
	inst, ex := c.def.newInstance(c.lay, pl, r.recs)
	if err := inst.populate(); err != nil {
		return r, fmt.Errorf("populate: %w", err)
	}
	runtime.GC()

	workers := make([]*worker, c.workers)
	finish := make([]int64, c.workers)
	var arrived sync.WaitGroup
	arrived.Add(c.workers)
	release := make(chan struct{})
	var deadline int64
	warmEnd := nanos() + int64(c.warm)

	// A worker stuck in a transaction would hang the run; give up loudly.
	watchdog := time.AfterFunc(c.warm+c.dur+hangGrace, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: slice still running %v past its deadline; giving up\n", c.def.name, hangGrace)
		os.Exit(3)
	})
	defer watchdog.Stop()

	var res harness.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = pl.Run(c.workers, func(hw *harness.Worker) {
			w := newWorker(hw, ex)
			w.lat = lat[hw.Index][:0]
			workers[hw.Index] = w
			step := inst.runner(w)
			for nanos() < warmEnd {
				for i := 0; i < ticket; i++ {
					step()
				}
			}
			warmTally, warmFailed := w.tally, w.failed
			hw.Thread.Stats = stm.Stats{Protocol: hw.Thread.Stats.Protocol}
			if r.recs != nil {
				// The wrapped stores recorded the warm-up too.
				w.rec = r.recs[hw.Index]
				w.rec.spans, w.rec.full = w.rec.spans[:0], false
			}
			arrived.Done()
			<-release
			prev := nanos()
			for prev < deadline && (w.rec == nil || !w.rec.full) {
				for i := 0; i < ticket; i++ {
					step()
					now := nanos()
					if len(w.lat) < cap(w.lat) {
						w.lat = append(w.lat, uint32(min(now-prev, 1<<32-1)))
					}
					prev = now
				}
			}
			finish[hw.Index] = prev
			atomic.AddInt64(&r.txs, w.tally.txs-warmTally.txs)
			atomic.AddInt64(&r.failed, w.failed-warmFailed)
		})
	}()

	arrived.Wait()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := nanos()
	deadline = start + int64(c.dur)
	close(release)
	<-done
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	for _, rec := range r.recs {
		rec.full = true // the invariant check's calls are not the workload's
	}

	var live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	r.heapLiveKB = (float64(live.HeapAlloc) - float64(heap0)) / 1024

	wallS := float64(slices.Max(finish)-start) / 1e9
	r.stats = res.Stats
	all := make([]float64, 0, r.txs)
	var total tally
	for _, w := range workers {
		total.add(w.tally)
		for _, ns := range w.lat {
			if time.Duration(ns) > txWatchdog {
				r.failed++
			}
			all = append(all, float64(ns)/1e3)
		}
	}
	if c.lay != layerNoop {
		r.invariant = inst.check(total)
	}
	if r.invariant != nil {
		r.failed = r.txs
	}
	if r.txs == 0 {
		return r, fmt.Errorf("no transaction completed in %v", c.dur)
	}
	slices.Sort(all)
	tx := float64(r.txs)
	r.txPerS = tx / wallS
	r.p50us = percentileSorted(all, 50)
	r.p99us = percentileSorted(all, 99)
	r.cpuUsPerTx = float64(cpu1-cpu0) / 1e3 / tx
	r.allocsPerTx = float64(m1.Mallocs-m0.Mallocs) / tx
	r.bytesPerTx = float64(m1.TotalAlloc-m0.TotalAlloc) / tx
	return r, nil
}

// measureSetup times building and populating the workload's state, from
// a collected heap each time; setup_s is the median of the builds.
func measureSetup(def workloadDef, seed int64, builds int) (sample, error) {
	var out sample
	pl := &harness.RealPlatform{Seed: seed}
	for i := 0; i < builds; i++ {
		runtime.GC()
		t0 := time.Now()
		inst, _ := def.newInstance(layerCore, pl, nil)
		if err := inst.populate(); err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// simPass is one 1 vCPU + 16 vCPU pair on harness.SimPlatform.
type simPass struct {
	makespan1, makespan16 float64
	stats16               stm.Stats
	wallS                 float64
	failed                int64
	invariant             error
}

func (p simPass) speedup() float64 { return p.makespan1 / p.makespan16 }

// lost is (aborts + violations) / commits at 16 vCPUs.
func (p simPass) lost() float64 {
	return float64(p.stats16.Aborts+p.stats16.Violations) / float64(max(p.stats16.Commits, 1))
}

// same reports whether two passes are bit-identical in what they count.
func (p simPass) same(q simPass) bool {
	a, b := p.stats16, q.stats16
	return p.makespan1 == q.makespan1 && p.makespan16 == q.makespan16 &&
		a.Commits == b.Commits && a.Aborts == b.Aborts && a.Violations == b.Violations && a.UserAborts == b.UserAborts
}

const simCPUs = 16

// runSim runs simTx transactions of the workload, handed out in tickets,
// on 1 and on 16 virtual CPUs: the same body, virtual time.
func runSim(def workloadDef, lay layer, seed int64, simTx int) (simPass, error) {
	var p simPass
	t0 := time.Now()
	for _, cpus := range []int{1, simCPUs} {
		pl := &harness.SimPlatform{Seed: seed}
		inst, ex := def.newInstance(lay, pl, nil)
		if err := inst.populate(); err != nil {
			return p, fmt.Errorf("populate: %w", err)
		}
		workers := make([]*worker, cpus)
		// Only one virtual CPU runs at a time, in an order the simulator
		// fixes, so the shared ticket counter is deterministic.
		next := 0
		res := pl.Run(cpus, func(hw *harness.Worker) {
			w := newWorker(hw, ex)
			workers[hw.Index] = w
			step := inst.runner(w)
			for next < simTx {
				n := min(ticket, simTx-next)
				next += n
				for i := 0; i < n; i++ {
					step()
				}
			}
		})
		var total tally
		for _, w := range workers {
			total.add(w.tally)
			p.failed += w.failed
		}
		if err := inst.check(total); err != nil && p.invariant == nil {
			p.invariant = fmt.Errorf("%d vCPUs: %w", cpus, err)
		}
		if cpus == 1 {
			p.makespan1 = res.Elapsed
		} else {
			p.makespan16, p.stats16 = res.Elapsed, res.Stats
		}
	}
	p.wallS = time.Since(t0).Seconds()
	return p, nil
}
