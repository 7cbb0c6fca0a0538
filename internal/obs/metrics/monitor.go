package metrics

import (
	"log"
	"time"

	"tcc/internal/thread"
)

// The monitor's cadence and alert thresholds.
const (
	// monitorInterval is the time between samples.
	monitorInterval = time.Second
	// abortRateThreshold raises the abort-rate alert when the windowed
	// (aborts+violations+user aborts) / finished transactions exceeds it.
	abortRateThreshold = 0.5
	// minWindowTx suppresses the abort-rate alert until the window
	// holds at least this many finished transactions, so idle or
	// just-started processes do not flap.
	minWindowTx = 100
	// guardWaitThreshold raises the guard-wait alert when the
	// trailing-window commit-guard blocking time exceeds it.
	guardWaitThreshold = 100 * time.Millisecond
)

// Monitor is the background metrics thread: every second it
// advances the registry window, recomputes the windowed abort rate
// and guard-wait totals, publishes them as gauges
// (tcc_monitor_abort_rate, tcc_monitor_alert{alert=...}), and logs
// alert transitions. Built on the internal/thread periodic-thread
// idiom; Start/Stop are cheap and idempotent.
type Monitor struct {
	reg    *Registry
	logger *log.Logger
	th     *thread.Thread

	gRate       *Gauge
	gAbortAl    *Gauge
	gGuardAl    *Gauge
	abortRaised bool
	guardRaised bool
}

// NewMonitor returns an unstarted monitor over r. logger receives
// alert transitions (RAISED/cleared) and thread lifecycle messages;
// nil drops them.
func NewMonitor(r *Registry, logger *log.Logger) *Monitor {
	m := &Monitor{
		reg:      r,
		logger:   logger,
		gRate:    r.Gauge(MonitorAbortRate, "Windowed abort rate: (aborts+violations)/(commits+aborts+violations) over the trailing window"),
		gAbortAl: r.Gauge(MonitorAlert, "Monitor alert state: 1 raised, 0 clear", L("alert", "abort_rate")),
		gGuardAl: r.Gauge(MonitorAlert, "Monitor alert state: 1 raised, 0 clear", L("alert", "guard_wait")),
	}
	m.th = thread.New(logger, "metrics-monitor", monitorInterval, m.Tick)
	return m
}

// Start launches the periodic sampling thread.
func (m *Monitor) Start() { m.th.Start() }

// Stop halts it, blocking until the in-flight tick (if any) is done.
func (m *Monitor) Stop() { m.th.Stop() }

// windowedStm sums the trailing-window view of the STM families the
// monitor and the profile exporter alert on.
func windowedStm(r *Registry) (commits, aborts, gwaitNs uint64) {
	for _, f := range r.Gather() {
		var sum uint64
		for _, mt := range f.Metrics {
			sum += mt.Windowed
		}
		switch f.Name {
		// StmSnapshotCommits is a subset of StmCommits; adding it here
		// would double-count snapshot commits.
		case StmCommits:
			commits += sum
		case StmAborts, StmViolations, StmUserAborts:
			aborts += sum
		case StmGuardWaitNs:
			gwaitNs += sum
		}
	}
	return commits, aborts, gwaitNs
}

// WindowedAbortRate reports the trailing-window abort rate of r —
// (aborts+violations+user aborts) / all finished transactions — and
// the number of finished transactions the window holds. Rate is 0
// when the window is empty.
func WindowedAbortRate(r *Registry) (rate float64, total uint64) {
	commits, aborts, _ := windowedStm(r)
	total = commits + aborts
	if total > 0 {
		rate = float64(aborts) / float64(total)
	}
	return rate, total
}

// Tick runs one sampling pass. Exported so tests (and one-shot
// callers) can drive the monitor without the goroutine.
func (m *Monitor) Tick() {
	m.reg.Advance(time.Now())

	rate, total := WindowedAbortRate(m.reg)
	m.gRate.Set(rate)

	abortHot := total >= minWindowTx && rate > abortRateThreshold
	m.transition(&m.abortRaised, abortHot, m.gAbortAl,
		"abort-rate alert", "windowed rate %.3f (threshold %.3f, %d tx in window)",
		rate, abortRateThreshold, total)

	_, _, gwaitNs := windowedStm(m.reg)
	guardHot := gwaitNs > uint64(guardWaitThreshold)
	m.transition(&m.guardRaised, guardHot, m.gGuardAl,
		"guard-wait alert", "windowed guard wait %v (threshold %v)",
		time.Duration(gwaitNs), guardWaitThreshold)
}

func (m *Monitor) transition(raised *bool, hot bool, g *Gauge, name, format string, args ...any) {
	if hot == *raised {
		return
	}
	*raised = hot
	if hot {
		g.Set(1)
		m.logf("metrics-monitor: %s RAISED: "+format, append([]any{name}, args...)...)
	} else {
		g.Set(0)
		m.logf("metrics-monitor: %s cleared: "+format, append([]any{name}, args...)...)
	}
}

func (m *Monitor) logf(format string, args ...any) {
	if m.logger != nil {
		m.logger.Printf(format, args...)
	}
}
