// Package harness runs the paper's benchmark workloads (TestMap,
// TestSortedMap, TestCompound and the SPECjbb2000-style workload in
// internal/jbb) across CPU counts and reports speedups in the shape of
// the paper's Figures 1-4.
//
// Workloads are written against the Platform abstraction so the same
// code runs on two substrates: the deterministic virtual-CPU simulator
// (internal/sim), which produces the figures regardless of how many
// host cores exist — exactly as the paper used an execution-driven CMP
// simulator — and real goroutines for wall-clock testing.B benches.
package harness

import (
	"math/rand"
	"sync"
	"time"

	"tcc/internal/sim"
	"tcc/internal/stm"
)

// Worker is one concurrent executor of a workload: a transactional
// thread plus a deterministic per-worker RNG.
type Worker struct {
	// Index identifies the worker, in [0, N).
	Index int
	// Thread is the worker's transactional context.
	Thread *stm.Thread
	// RNG drives the workload's randomized choices deterministically.
	RNG *rand.Rand
}

// newWorker builds worker i of a run on clock: the thread and RNG seeds
// every platform derives from its own seed, the worker's index as the
// thread's TraceID (its affine queue lane) and the platform's protocol.
func newWorker(i int, clock stm.Clock, seed int64, protocol string) *Worker {
	w := &Worker{
		Index:  i,
		Thread: stm.NewThread(clock, seed<<8|int64(i)),
		RNG:    rand.New(rand.NewSource(seed<<16 | int64(i+1))),
	}
	w.Thread.TraceID = i
	setProtocol(w.Thread, protocol)
	return w
}

// Compute charges pure computation time — the "surrounding computation"
// of the paper's micro-benchmarks.
func (w *Worker) Compute(cycles uint64) { w.Thread.Clock.Tick(cycles) }

// Lock is a mutual-exclusion lock whose contention costs time on the
// current platform; the "Java synchronized" baselines are built on it.
type Lock interface {
	Lock(w *Worker)
	Unlock(w *Worker)
}

// Result is one measured run.
type Result struct {
	// Workers is the number of concurrent workers (virtual CPUs).
	Workers int
	// Elapsed is the run's duration in the platform's time unit
	// (virtual cycles on the simulator, nanoseconds for real runs).
	Elapsed float64
	// Stats aggregates transactional events across workers.
	Stats stm.Stats
}

// Platform runs workers and measures elapsed time.
type Platform interface {
	// Run executes body once per worker, concurrently, and reports the
	// elapsed time and aggregate transaction statistics.
	Run(workers int, body func(w *Worker)) Result
	// NewLock creates a lock whose contention is accounted on this
	// platform.
	NewLock() Lock
}

// SimPlatform runs workloads on the deterministic virtual-CPU
// simulator. The zero value is ready to use; set Seed for different
// deterministic schedules, and Protocol to run workers under a
// non-default concurrency-control protocol.
type SimPlatform struct {
	Seed int64
	// Protocol selects the STM protocol for every worker thread
	// (stm.Protocols() lists the choices); "" means the default.
	Protocol string
}

// Run executes body on `workers` virtual CPUs and reports the virtual
// makespan.
func (p *SimPlatform) Run(workers int, body func(w *Worker)) Result {
	s := sim.New(workers)
	var mu sync.Mutex
	var agg stm.Stats
	s.Run(func(cpu *sim.CPU) {
		w := newWorker(cpu.ID(), cpu, p.Seed, p.Protocol)
		body(w)
		mu.Lock()
		agg.Add(w.Thread.Stats)
		mu.Unlock()
	})
	return Result{Workers: workers, Elapsed: float64(s.Makespan()), Stats: agg}
}

// NewLock returns a virtual-time lock.
func (p *SimPlatform) NewLock() Lock { return &simLock{} }

type simLock struct {
	l sim.Lock
}

func (s *simLock) Lock(w *Worker)   { s.l.Acquire(w.Thread.Clock.(*sim.CPU)) }
func (s *simLock) Unlock(w *Worker) { s.l.Release(w.Thread.Clock.(*sim.CPU)) }

// RealPlatform runs workloads on real goroutines and measures wall
// time. Useful for testing.B benches and stress tests; speedup curves
// beyond the host's core count require SimPlatform.
type RealPlatform struct {
	Seed int64
	// Protocol selects the STM protocol for every worker thread
	// (stm.Protocols() lists the choices); "" means the default.
	Protocol string
}

// setProtocol applies a platform's protocol selection ("": the default)
// to a freshly created worker thread. An unknown name panics: a sweep
// comparing protocols must not silently fall back to the default and report its
// numbers under the wrong label.
func setProtocol(th *stm.Thread, proto string) {
	if proto == "" {
		return
	}
	if err := th.SetProtocol(proto); err != nil {
		panic(err)
	}
}

// Run executes body on `workers` goroutines and reports wall time in
// nanoseconds.
func (p *RealPlatform) Run(workers int, body func(w *Worker)) Result {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var agg stm.Stats
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newWorker(i, &stm.RealClock{}, p.Seed, p.Protocol)
			body(w)
			mu.Lock()
			agg.Add(w.Thread.Stats)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return Result{Workers: workers, Elapsed: float64(time.Since(start).Nanoseconds()), Stats: agg}
}

// NewLock returns a real mutex.
func (p *RealPlatform) NewLock() Lock { return &realLock{} }

type realLock struct {
	mu sync.Mutex
}

func (r *realLock) Lock(*Worker)   { r.mu.Lock() }
func (r *realLock) Unlock(*Worker) { r.mu.Unlock() }
