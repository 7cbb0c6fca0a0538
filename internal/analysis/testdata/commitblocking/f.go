// Package commitblocking exercises the commit-window-blocking rule:
// nothing reachable from a commit-guard hold window or a handler body
// may block — a blocked window stalls every transaction sharing its
// guards. The vocabulary covered here: time.Sleep, channel operations
// (send, receive, range, default-less select), sync mutex/waitgroup
// parking, and file I/O.
package commitblocking

import (
	"os"
	"sync"
	"time"

	"tcc/internal/obs/metrics"
	"tcc/internal/stm"
)

var guard = stm.NewGuard()

// sleepInWindow is the canonical convoy: every transaction sharing the
// guard waits out the sleep.
func sleepInWindow() {
	guard.Lock()
	time.Sleep(time.Millisecond) // want commit-window-blocking
	guard.Unlock()
}

// sleepOutside: the same operation after release is fine.
func sleepOutside() {
	guard.Lock()
	guard.Unlock()
	time.Sleep(time.Millisecond)
}

// chanInWindow: both directions of a channel operation park the
// goroutine while the guard is held.
func chanInWindow(ch chan int) {
	guard.Lock()
	ch <- 1 // want commit-window-blocking
	<-ch    // want commit-window-blocking
	guard.Unlock()
}

// rangeChanInWindow: range over a channel blocks on every iteration.
func rangeChanInWindow(ch chan int) {
	guard.Lock()
	for v := range ch { // want commit-window-blocking
		_ = v
	}
	guard.Unlock()
}

// selectInWindow: a select with no default commits to waiting.
func selectInWindow(a, b chan int) {
	guard.Lock()
	select { // want commit-window-blocking
	case <-a:
	case <-b:
	}
	guard.Unlock()
}

// selectWithDefault polls without parking, which is allowed; the comm
// clauses themselves are attempted non-blockingly.
func selectWithDefault(a chan int) {
	guard.Lock()
	select {
	case <-a:
	default:
	}
	guard.Unlock()
}

// mutexInWindow nests a parking lock inside the guard.
func mutexInWindow(mu *sync.Mutex) {
	guard.Lock()
	mu.Lock() // want commit-window-blocking
	mu.Unlock()
	guard.Unlock()
}

// fileInWindow does file I/O with the guard held.
func fileInWindow(f *os.File, buf []byte) {
	guard.Lock()
	_, _ = f.Write(buf) // want commit-window-blocking
	guard.Unlock()
}

// callsBlocking reaches the blocking operation through a call: the
// diagnostic lands on the in-window call site with the chain
// (notify → channel send) in its message.
func callsBlocking(ch chan int) {
	guard.Lock()
	notify(ch) // want commit-window-blocking
	guard.Unlock()
}

func notify(ch chan int) {
	ch <- 1 // only flagged when reached with a guard held
}

// handlerBlocks: handlers run with their registered guard held, so a
// send inside one convoys every commit sharing that guard.
func handlerBlocks(th *stm.Thread, done chan struct{}) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnTopCommitGuarded(guard, func() {
			done <- struct{}{} // want commit-window-blocking
		})
		return nil
	})
}

// spawnInWindow hands the blocking operation to a goroutine: the send
// happens off the window's synchronous path, so the window itself never
// parks. (Whether the spawned goroutine should exist is not this
// rule's question.)
func spawnInWindow(ch chan int) {
	guard.Lock()
	go func() {
		ch <- 1
	}()
	guard.Unlock()
}

// waitGroupInWindow parks until the group drains.
func waitGroupInWindow(wg *sync.WaitGroup) {
	guard.Lock()
	wg.Wait() // want commit-window-blocking
	guard.Unlock()
}

// metricsInWindow: the live metrics plane is trusted inside hold
// windows — its increment paths are atomic-only, so counting a
// violation while the guard is held is the plane's designed usage, not
// a convoy. No diagnostics expected here, even for the registration
// call (the trusted set prunes the search at the package edge).
var winViolations = metrics.Default.Counter("fixture_violations_total", "fixture")

func metricsInWindow() {
	guard.Lock()
	if metrics.On() {
		winViolations.Add(1)
	}
	guard.Unlock()
}

// metricsRegistrationInWindow: registration takes the registry mutex,
// but the whole package is trusted — stmlint leaves the discipline
// ("register at construction time") to review, flagging nothing.
func metricsRegistrationInWindow() {
	guard.Lock()
	metrics.Default.Counter("fixture_late_total", "fixture").Add(1)
	guard.Unlock()
}

// stripeSweep models the striped collections' multi-guard hold window
// (lockSpan/unlockSpan — the segmented queue's all-lane emptiness check,
// the range-striped sorted map's interval span): calls to the pair open
// and close commit-guard hold windows just like Guard.Lock/Unlock, so
// blocking between them convoys every lane/stripe of the span at once.
type stripeSweep struct {
	guards []*stm.Guard
}

//stmlint:window open
func (s *stripeSweep) lockSpan(lo, hi int) {
	for _, g := range s.guards[lo:hi] {
		g.Lock()
	}
}

//stmlint:window close
func (s *stripeSweep) unlockSpan(lo, hi int) {
	for _, g := range s.guards[lo:hi] {
		g.Unlock()
	}
}

func sleepInLaneWindow(s *stripeSweep) {
	s.lockSpan(0, len(s.guards))
	time.Sleep(time.Millisecond) // want commit-window-blocking
	s.unlockSpan(0, len(s.guards))
}

func sleepInSpanWindow(s *stripeSweep) {
	s.lockSpan(0, 2)
	time.Sleep(time.Millisecond) // want commit-window-blocking
	s.unlockSpan(0, 2)
}

// deferredRelease models the STM's handler window (Tx.window): the
// directive-annotated opener followed by a *deferred* closer. A defer
// runs at function return, so the window extends to the end of the block
// — what follows the defer statement runs with the span held, what
// precedes the opener does not — and a defer registered before the
// opener runs after the release. The directives need no change for it.
func deferredRelease(s *stripeSweep, ch chan int) {
	defer notify(ch)             // registered first: runs once the span is free
	time.Sleep(time.Millisecond) // before the opener: not in the window
	s.lockSpan(0, len(s.guards))
	defer s.unlockSpan(0, len(s.guards))
	time.Sleep(time.Millisecond) // want commit-window-blocking
}

// suppressedSleep: a reviewed violation is silenced in place.
func suppressedSleep() {
	guard.Lock()
	//stmlint:ignore commit-window-blocking simulator-only path, no shared guards
	time.Sleep(time.Millisecond)
	guard.Unlock()
}
