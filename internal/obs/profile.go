package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tcc/internal/obs/metrics"
)

// Profile is a Tracer that aggregates events into the TAPE-style
// summary the paper's §6.3 analysis was built on: per-object conflict
// attribution (which Var or semantic lock caused rollbacks, and how
// much work they destroyed), plus latency and retry histograms.
//
// Counters are atomics and histograms are lock-free; only the
// conflict map takes a mutex, and only on the rollback path (which is
// already the slow path).
type Profile struct {
	begins, commits, aborts, violations, userAborts atomic.Uint64
	nestedRetries, openCommits, openRetries         atomic.Uint64
	backoffs, backoffCycles, lostCycles             atomic.Uint64
	guardWaits, snapshotCommits                     atomic.Uint64

	latency Hist // committed-tx latency in cycles (incl. retries+backoff)
	retries Hist // retries per committed tx

	mu   sync.Mutex
	spot map[string]*hotspot
}

type hotspot struct {
	kind          string // "var", "semantic" or "guard"
	rollbacks     uint64 // top-level aborts + violations attributed here
	nestedRetries uint64
	openRetries   uint64
	guardWaits    uint64 // contended commit-guard acquisitions
	lostCycles    uint64
}

// NewProfile returns an empty aggregator ready to install with
// SetTracer (or layer via Tee).
func NewProfile() *Profile {
	return &Profile{spot: make(map[string]*hotspot)}
}

// unattributed collects rollbacks with no conflict record (e.g. a
// violation with an empty reason); keeping them visible stops the
// heatmap from silently dropping lost work.
const unattributed = "(unattributed)"

// Trace implements Tracer.
func (p *Profile) Trace(e Event) {
	switch e.Kind {
	case KindTxBegin:
		p.begins.Add(1)
	case KindTxCommit:
		p.commits.Add(1)
		if e.Snapshot {
			p.snapshotCommits.Add(1)
		}
		p.latency.Observe(e.CPU, e.Dur)
		p.retries.Observe(e.CPU, uint64(e.Attempt))
	case KindTxAbort:
		p.aborts.Add(1)
		p.lostCycles.Add(e.Dur)
		p.note(e.Where, "var", e.Dur, rollbackTop)
	case KindTxViolated:
		p.violations.Add(1)
		p.lostCycles.Add(e.Dur)
		where, kind := e.Where, "var"
		if where == "" {
			where, kind = e.Reason, "semantic"
		}
		p.note(where, kind, e.Dur, rollbackTop)
	case KindTxUserAbort:
		p.userAborts.Add(1)
	case KindNestedRetry:
		p.nestedRetries.Add(1)
		p.note(e.Where, "var", e.Dur, rollbackNested)
	case KindOpenCommit:
		p.openCommits.Add(1)
	case KindOpenRetry:
		p.openRetries.Add(1)
		p.note(e.Where, "var", e.Dur, rollbackOpen)
	case KindBackoff:
		p.backoffs.Add(1)
		p.backoffCycles.Add(e.Dur)
	case KindGuardWait:
		p.guardWaits.Add(uint64(e.Waits))
		p.noteGuardWait(e.Where, uint64(e.Waits))
	}
}

type rollbackClass uint8

const (
	rollbackTop rollbackClass = iota
	rollbackNested
	rollbackOpen
)

func (p *Profile) note(where, kind string, lost uint64, class rollbackClass) {
	if where == "" {
		where, kind = unattributed, "?"
	}
	p.mu.Lock()
	h := p.spot[where]
	if h == nil {
		h = &hotspot{kind: kind}
		p.spot[where] = h
	}
	switch class {
	case rollbackTop:
		h.rollbacks++
	case rollbackNested:
		h.nestedRetries++
	case rollbackOpen:
		h.openRetries++
	}
	h.lostCycles += lost
	p.mu.Unlock()
}

// noteGuardWait charges contended commit-guard acquisitions to the
// guard's heatmap row, so commit-serialization shows up next to the
// conflict hotspots it usually accompanies.
func (p *Profile) noteGuardWait(where string, waits uint64) {
	if where == "" {
		where = unattributed
	}
	p.mu.Lock()
	h := p.spot[where]
	if h == nil {
		h = &hotspot{kind: "guard"}
		p.spot[where] = h
	}
	h.guardWaits += waits
	p.mu.Unlock()
}

// Hotspot is one heatmap row: a Var or semantic lock ranked by the
// rollbacks it caused.
type Hotspot struct {
	Label         string  `json:"label"`
	Kind          string  `json:"kind"` // "var" | "semantic" | "?"
	Rollbacks     uint64  `json:"rollbacks"`
	NestedRetries uint64  `json:"nested_retries,omitempty"`
	OpenRetries   uint64  `json:"open_retries,omitempty"`
	GuardWaits    uint64  `json:"guard_waits,omitempty"`
	LostCycles    uint64  `json:"lost_cycles"`
	Share         float64 `json:"share"` // fraction of attributed rollbacks
}

// ProfileReport is the exportable (JSON-able) snapshot of a Profile.
type ProfileReport struct {
	Begins          uint64 `json:"begins"`
	Commits         uint64 `json:"commits"`
	SnapshotCommits uint64 `json:"snapshot_commits,omitempty"`
	Aborts          uint64 `json:"aborts"`
	Violations      uint64 `json:"violations"`
	UserAborts      uint64 `json:"user_aborts,omitempty"`
	NestedRetries   uint64 `json:"nested_retries,omitempty"`
	OpenCommits     uint64 `json:"open_commits,omitempty"`
	OpenRetries     uint64 `json:"open_retries,omitempty"`
	Backoffs        uint64 `json:"backoffs,omitempty"`
	BackoffCycles   uint64 `json:"backoff_cycles,omitempty"`
	GuardWaits      uint64 `json:"guard_waits,omitempty"`
	LostCycles      uint64 `json:"lost_cycles"`
	// AbortRate is (aborts+violations+user aborts) over all finished
	// transactions in this profile.
	AbortRate float64 `json:"abort_rate"`
	// WindowedAbortRate is the live metrics plane's trailing-window
	// abort rate, sampled at Report time when metrics are enabled
	// (0 and omitted otherwise).
	WindowedAbortRate float64      `json:"windowed_abort_rate,omitempty"`
	Hotspots          []Hotspot    `json:"hotspots,omitempty"`
	Latency           HistSnapshot `json:"latency"`
	Retries           HistSnapshot `json:"retries"`
}

// Report snapshots the profile. Hotspots are sorted hottest-first
// (rollbacks, then lost cycles, then label — deterministic for tests).
func (p *Profile) Report() *ProfileReport {
	r := &ProfileReport{
		Begins:          p.begins.Load(),
		Commits:         p.commits.Load(),
		SnapshotCommits: p.snapshotCommits.Load(),
		Aborts:          p.aborts.Load(),
		Violations:      p.violations.Load(),
		UserAborts:      p.userAborts.Load(),
		NestedRetries:   p.nestedRetries.Load(),
		OpenCommits:     p.openCommits.Load(),
		OpenRetries:     p.openRetries.Load(),
		Backoffs:        p.backoffs.Load(),
		BackoffCycles:   p.backoffCycles.Load(),
		GuardWaits:      p.guardWaits.Load(),
		LostCycles:      p.lostCycles.Load(),
		Latency:         p.latency.Snapshot(),
		Retries:         p.retries.Snapshot(),
	}
	if rolled := r.Aborts + r.Violations + r.UserAborts; r.Commits+rolled > 0 {
		r.AbortRate = float64(rolled) / float64(r.Commits+rolled)
	}
	if metrics.On() {
		if rate, total := metrics.WindowedAbortRate(metrics.Default); total > 0 {
			r.WindowedAbortRate = rate
		}
	}
	p.mu.Lock()
	var total uint64
	for _, h := range p.spot {
		total += h.rollbacks
	}
	for label, h := range p.spot {
		row := Hotspot{
			Label:         label,
			Kind:          h.kind,
			Rollbacks:     h.rollbacks,
			NestedRetries: h.nestedRetries,
			OpenRetries:   h.openRetries,
			GuardWaits:    h.guardWaits,
			LostCycles:    h.lostCycles,
		}
		if total > 0 {
			row.Share = float64(h.rollbacks) / float64(total)
		}
		r.Hotspots = append(r.Hotspots, row)
	}
	p.mu.Unlock()
	sort.Slice(r.Hotspots, func(i, j int) bool {
		a, b := r.Hotspots[i], r.Hotspots[j]
		if a.Rollbacks != b.Rollbacks {
			return a.Rollbacks > b.Rollbacks
		}
		if a.LostCycles != b.LostCycles {
			return a.LostCycles > b.LostCycles
		}
		return a.Label < b.Label
	})
	return r
}

// HotspotShare returns the attributed-rollback share of the row whose
// label is exactly label (0 if absent).
func (r *ProfileReport) HotspotShare(label string) float64 {
	for _, h := range r.Hotspots {
		if h.Label == label {
			return h.Share
		}
	}
	return 0
}

// WriteJSON writes the report as indented JSON.
func (r *ProfileReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Format renders the TAPE-table-style text heatmap, truncated to the
// top hottest rows (top <= 0 means all).
func (r *ProfileReport) Format(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "commits=%d aborts=%d violations=%d lost-work=%d cycles",
		r.Commits, r.Aborts, r.Violations, r.LostCycles)
	if r.SnapshotCommits > 0 {
		fmt.Fprintf(&b, " snapshot-commits=%d", r.SnapshotCommits)
	}
	if r.Backoffs > 0 {
		fmt.Fprintf(&b, " backoff=%d cycles/%d waits", r.BackoffCycles, r.Backoffs)
	}
	if r.GuardWaits > 0 {
		fmt.Fprintf(&b, " guard-waits=%d", r.GuardWaits)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "latency(cycles): %s   retries/commit: %s\n",
		r.Latency.String(), r.Retries.String())
	if len(r.Hotspots) == 0 {
		b.WriteString("no conflicts recorded\n")
		return b.String()
	}
	b.WriteString("hotspot                          kind      rollbacks  share   lost-cycles\n")
	n := len(r.Hotspots)
	if top > 0 && top < n {
		n = top
	}
	for _, h := range r.Hotspots[:n] {
		extra := ""
		if h.NestedRetries > 0 || h.OpenRetries > 0 {
			extra = fmt.Sprintf("  (nested=%d open=%d)", h.NestedRetries, h.OpenRetries)
		}
		if h.GuardWaits > 0 {
			extra += fmt.Sprintf("  (guard-waits=%d)", h.GuardWaits)
		}
		fmt.Fprintf(&b, "%-32s %-9s %9d  %5.1f%%  %11d%s\n",
			h.Label, h.Kind, h.Rollbacks, h.Share*100, h.LostCycles, extra)
	}
	if n < len(r.Hotspots) {
		fmt.Fprintf(&b, "... and %d more\n", len(r.Hotspots)-n)
	}
	return b.String()
}

// String renders the full heatmap.
func (r *ProfileReport) String() string { return r.Format(0) }
