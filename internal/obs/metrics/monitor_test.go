package metrics

import (
	"log"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a mutex-guarded strings.Builder so the monitor goroutine
// can log while the test reads.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestMonitorAbortRateAlert(t *testing.T) {
	r := NewRegistry(10 * time.Second)
	commits := r.Counter(StmCommits, "commits")
	aborts := r.Counter(StmAborts, "aborts", L("cause", "stale read"))

	var buf syncBuf
	m := NewMonitor(r, log.New(&buf, "", 0))

	// Quiet window: no alert even though the rate is 0/0.
	m.Tick()
	if m.gAbortAl.Value() != 0 {
		t.Fatalf("alert raised on an empty window")
	}

	// Hot window: 80 aborts vs 20 commits, minWindowTx in all.
	commits.Add(20)
	aborts.Add(80)
	m.Tick()
	if got := m.gRate.Value(); got != 0.8 {
		t.Fatalf("abort-rate gauge = %v, want 0.8", got)
	}
	if m.gAbortAl.Value() != 1 {
		t.Fatalf("abort-rate alert not raised at rate 0.8")
	}
	if !strings.Contains(buf.String(), "abort-rate alert RAISED") {
		t.Fatalf("raise transition not logged:\n%s", buf.String())
	}

	// A second hot tick must not re-log (transitions only).
	before := buf.String()
	m.Tick()
	if buf.String() != before {
		t.Fatalf("steady-state tick logged again")
	}

	// Window ages out (simulate by rotating everything): alert clears.
	for s := 0; s < windowSlots; s++ {
		commits.rotate(s)
		aborts.rotate(s)
	}
	m.Tick()
	if m.gAbortAl.Value() != 0 {
		t.Fatalf("abort-rate alert not cleared after window drained")
	}
	if !strings.Contains(buf.String(), "abort-rate alert cleared") {
		t.Fatalf("clear transition not logged:\n%s", buf.String())
	}
}

func TestMonitorBelowMinWindowTx(t *testing.T) {
	r := NewRegistry(10 * time.Second)
	r.Counter(StmCommits, "commits").Add(1)
	r.Counter(StmAborts, "aborts", L("cause", "stale read")).Add(minWindowTx - 2)
	m := NewMonitor(r, nil)
	m.Tick()
	if m.gAbortAl.Value() != 0 {
		t.Fatalf("alert raised with only %d tx in window (minWindowTx %d)", minWindowTx-1, minWindowTx)
	}
}

func TestMonitorGuardWaitAlert(t *testing.T) {
	r := NewRegistry(10 * time.Second)
	gw := r.Counter(StmGuardWaitNs, "guard wait ns")
	var buf syncBuf
	m := NewMonitor(r, log.New(&buf, "", 0))
	gw.Add(uint64(guardWaitThreshold))
	m.Tick()
	if m.gGuardAl.Value() != 0 {
		t.Fatalf("guard-wait alert raised at exactly the threshold")
	}
	gw.Add(1)
	m.Tick()
	if m.gGuardAl.Value() != 1 {
		t.Fatalf("guard-wait alert not raised past %v windowed wait", guardWaitThreshold)
	}
	if !strings.Contains(buf.String(), "guard-wait alert RAISED") {
		t.Fatalf("raise not logged:\n%s", buf.String())
	}
}

func TestMonitorStartStop(t *testing.T) {
	r := NewRegistry(time.Second)
	m := NewMonitor(r, nil)
	m.Start()
	time.Sleep(20 * time.Millisecond)
	m.Stop()
	// Stop is idempotent and Start/Stop can cycle.
	m.Stop()
	m.Start()
	m.Stop()
}
