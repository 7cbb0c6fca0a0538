// Package sim provides a deterministic discrete-event simulator of a
// chip multiprocessor with a configurable number of virtual CPUs.
//
// The paper evaluates its transactional collection classes on an
// execution-driven simulator of a 1-32 CPU PowerPC CMP where every
// instruction except loads and stores has a CPI of 1.0. This package is
// the substitute substrate: workload code runs as one goroutine per
// virtual CPU and charges abstract cycles for compute blocks, memory
// transactions and data-structure operations. The scheduler always runs
// the CPU with the smallest virtual time (ties broken by CPU id), so a
// run is fully deterministic for a fixed seed, which makes conflict
// behaviour — the thing the paper's figures actually measure —
// reproducible down to the cycle.
//
// Exactly one CPU goroutine executes at any instant: the scheduler
// grants a timeslice, the CPU runs until it charges time via Tick or
// Wait (a yield point) or finishes, then the scheduler picks the next
// CPU. Code between yield points therefore executes atomically with
// respect to other virtual CPUs, mirroring how the paper's simulator
// interleaves processors at memory-operation granularity.
package sim

import (
	"fmt"
	"sort"
)

// CPU is one virtual processor. It implements the stm.Clock interface so
// transactional code can charge cycles without knowing whether it runs
// on the simulator or on real hardware.
type CPU struct {
	id      int
	now     uint64
	sim     *Simulator
	grant   chan struct{}
	blocked bool
	done    bool
}

// ID returns the CPU's index, in [0, n) for a simulator of n CPUs.
func (c *CPU) ID() int { return c.id }

// Now returns the CPU's local virtual time in cycles.
func (c *CPU) Now() uint64 { return c.now }

// Tick charges busy cycles and yields to the scheduler. It must never be
// called while holding a real lock shared with other virtual CPUs: the
// calling goroutine is suspended until all CPUs with smaller virtual
// time have caught up.
func (c *CPU) Tick(cycles uint64) {
	c.now += cycles
	c.yield()
}

// Wait charges stall cycles (e.g. contention backoff). On the simulator
// stalling and computing cost the same thing — elapsed virtual time — so
// Wait is Tick; the distinction matters for the real-hardware clock.
func (c *CPU) Wait(cycles uint64) { c.Tick(cycles) }

// yield hands control back to the scheduler and blocks until the
// scheduler grants this CPU its next timeslice.
func (c *CPU) yield() {
	c.sim.events <- event{cpu: c}
	<-c.grant
}

// block marks the CPU unrunnable (it holds no timeslice afterwards) and
// suspends the goroutine until another CPU calls unblock.
func (c *CPU) block() {
	c.blocked = true
	c.sim.events <- event{cpu: c}
	<-c.grant
}

// unblock makes the target CPU runnable again, advancing its clock to at
// least wake so causality is respected (the waker's present is the
// sleeper's earliest possible future). Only the currently scheduled CPU
// may call unblock, so no locking is required.
func (c *CPU) unblock(wake uint64) {
	if !c.blocked {
		panic("sim: unblock of runnable CPU")
	}
	c.blocked = false
	if c.now < wake {
		c.now = wake
	}
}

type event struct {
	cpu      *CPU
	finished bool
	err      any // non-nil if the CPU body panicked
}

// Simulator owns a set of virtual CPUs and schedules them by virtual
// time.
type Simulator struct {
	cpus   []*CPU
	events chan event
}

// New creates a simulator with n virtual CPUs.
func New(n int) *Simulator {
	if n <= 0 {
		panic(fmt.Sprintf("sim: invalid CPU count %d", n))
	}
	s := &Simulator{events: make(chan event)}
	for i := 0; i < n; i++ {
		s.cpus = append(s.cpus, &CPU{id: i, sim: s, grant: make(chan struct{})})
	}
	return s
}

// Run executes body once per virtual CPU and returns when every CPU has
// finished. It panics if all live CPUs become blocked (a virtual-time
// deadlock) or if any CPU body panics, re-raising the body's panic value
// so tests see the original failure.
func (s *Simulator) Run(body func(cpu *CPU)) {
	live := len(s.cpus)
	for _, c := range s.cpus {
		c.done = false
		c.blocked = false
		go func(c *CPU) {
			<-c.grant
			defer func() {
				if r := recover(); r != nil {
					s.events <- event{cpu: c, finished: true, err: r}
					return
				}
				s.events <- event{cpu: c, finished: true}
			}()
			body(c)
		}(c)
	}
	for live > 0 {
		next := s.pick()
		if next == nil {
			panic(fmt.Sprintf("sim: virtual-time deadlock, %d CPUs blocked", live))
		}
		next.grant <- struct{}{}
		ev := <-s.events
		if ev.err != nil {
			panic(ev.err)
		}
		if ev.finished {
			ev.cpu.done = true
			live--
		}
	}
}

// pick returns the runnable CPU with the smallest (now, id), or nil if
// every live CPU is blocked.
func (s *Simulator) pick() *CPU {
	var best *CPU
	for _, c := range s.cpus {
		if c.done || c.blocked {
			continue
		}
		if best == nil || c.now < best.now || (c.now == best.now && c.id < best.id) {
			best = c
		}
	}
	return best
}

// Makespan returns the maximum virtual completion time across CPUs — the
// simulated wall-clock duration of the last Run.
func (s *Simulator) Makespan() uint64 {
	var m uint64
	for _, c := range s.cpus {
		if c.now > m {
			m = c.now
		}
	}
	return m
}

// Times returns each CPU's final virtual time, sorted ascending. Useful
// for load-balance diagnostics in tests.
func (s *Simulator) Times() []uint64 {
	out := make([]uint64, len(s.cpus))
	for i, c := range s.cpus {
		out[i] = c.now
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
