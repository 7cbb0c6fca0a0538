package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

type countTracer struct{ n int }

func (c *countTracer) Trace(Event) { c.n++ }

func TestSetTracerAndActive(t *testing.T) {
	defer SetTracer(nil)
	if Active() != nil {
		t.Fatalf("fresh package: Active() = %v, want nil", Active())
	}
	c := &countTracer{}
	SetTracer(c)
	got := Active()
	if got == nil {
		t.Fatal("Active() nil after SetTracer")
	}
	got.Trace(Event{Kind: KindTxBegin})
	if c.n != 1 {
		t.Fatalf("tracer saw %d events, want 1", c.n)
	}
	SetTracer(nil)
	if Active() != nil {
		t.Fatal("Active() non-nil after SetTracer(nil)")
	}
}

func TestTee(t *testing.T) {
	a, b := &countTracer{}, &countTracer{}
	if Tee(nil, nil) != nil {
		t.Fatal("Tee(nil,nil) should be nil")
	}
	if Tee(a, nil) != Tracer(a) || Tee(nil, b) != Tracer(b) {
		t.Fatal("Tee with one nil side should collapse")
	}
	Tee(a, b).Trace(Event{})
	if a.n != 1 || b.n != 1 {
		t.Fatalf("tee fan-out: a=%d b=%d, want 1,1", a.n, b.n)
	}
}

func TestKindString(t *testing.T) {
	if KindTxCommit.String() != "tx.commit" || KindBackoff.String() != "backoff" {
		t.Fatalf("kind names wrong: %q %q", KindTxCommit, KindBackoff)
	}
	if Kind(200).String() != "obs.unknown" {
		t.Fatalf("out-of-range kind: %q", Kind(200))
	}
}

func TestHistBucketing(t *testing.T) {
	var h Hist
	// Same lane for determinism; values chosen to pin bucket edges.
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 39} {
		h.Observe(3, v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	want := map[uint64]uint64{ // lo → n
		0: 1, 1: 1, 2: 2, 4: 2, 8: 1, 1 << 38: 1,
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want lows %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Lo] != b.N {
			t.Fatalf("bucket lo=%d n=%d, want n=%d", b.Lo, b.N, want[b.Lo])
		}
	}
	if s.Sum != 0+1+2+3+4+7+8+1<<39 {
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestHistShardMerge(t *testing.T) {
	var h Hist
	for lane := 0; lane < 64; lane++ { // exercise shard wraparound
		h.Observe(lane, uint64(lane))
	}
	if s := h.Snapshot(); s.Count != 64 {
		t.Fatalf("count = %d, want 64", s.Count)
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 100; v++ {
		h.Observe(0, v)
	}
	s := h.Snapshot()
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("p0 ≤ %d, want 1", q)
	}
	// p50 of 1..100 lands in bucket [32,63].
	if q := s.Quantile(0.5); q != 63 {
		t.Fatalf("p50 ≤ %d, want 63", q)
	}
	if q := s.Quantile(1); q != 127 {
		t.Fatalf("p100 ≤ %d, want 127", q)
	}
	var empty Hist
	if q := empty.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty hist quantile = %d", q)
	}
}

func TestProfileAggregation(t *testing.T) {
	p := NewProfile()
	p.Trace(Event{Kind: KindTxBegin, CPU: 0})
	p.Trace(Event{Kind: KindTxAbort, CPU: 0, Dur: 100, Where: "HashMap.size", Reason: "stale read"})
	p.Trace(Event{Kind: KindTxBegin, CPU: 0, Attempt: 1})
	p.Trace(Event{Kind: KindBackoff, CPU: 0, Dur: 32, Attempt: 1})
	p.Trace(Event{Kind: KindTxCommit, CPU: 0, Dur: 400, Attempt: 1, Reads: 3, Writes: 2})
	p.Trace(Event{Kind: KindTxViolated, CPU: 1, Dur: 50, Reason: "TestMap: key conflict"})
	p.Trace(Event{Kind: KindTxAbort, CPU: 1, Dur: 60, Where: "HashMap.size"})
	p.Trace(Event{Kind: KindNestedRetry, CPU: 1, Dur: 10, Where: "HashMap.bucket[3]"})
	p.Trace(Event{Kind: KindTxAbort, CPU: 1, Dur: 5}) // unattributed

	r := p.Report()
	if r.Commits != 1 || r.Aborts != 3 || r.Violations != 1 || r.NestedRetries != 1 {
		t.Fatalf("counters wrong: %+v", r)
	}
	if r.LostCycles != 100+50+60+5 {
		t.Fatalf("lost cycles = %d", r.LostCycles)
	}
	if r.BackoffCycles != 32 || r.Backoffs != 1 {
		t.Fatalf("backoff = %d/%d", r.BackoffCycles, r.Backoffs)
	}
	if len(r.Hotspots) != 4 {
		t.Fatalf("hotspots = %+v", r.Hotspots)
	}
	top := r.Hotspots[0]
	if top.Label != "HashMap.size" || top.Rollbacks != 2 || top.Kind != "var" {
		t.Fatalf("top hotspot = %+v", top)
	}
	// 2 of 4 attributed rollbacks (size×2, semantic×1, unattributed×1).
	if got := r.HotspotShare("HashMap.size"); got != 0.5 {
		t.Fatalf("size share = %v, want 0.5", got)
	}
	var sem *Hotspot
	for i := range r.Hotspots {
		if r.Hotspots[i].Label == "TestMap: key conflict" {
			sem = &r.Hotspots[i]
		}
	}
	if sem == nil || sem.Kind != "semantic" {
		t.Fatalf("semantic hotspot missing: %+v", r.Hotspots)
	}
	if r.Latency.Count != 1 || r.Retries.Count != 1 {
		t.Fatalf("hists: latency=%d retries=%d", r.Latency.Count, r.Retries.Count)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ProfileReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Hotspots[0].Label != "HashMap.size" {
		t.Fatalf("round-trip top hotspot = %+v", back.Hotspots[0])
	}

	text := r.Format(2)
	if !strings.Contains(text, "HashMap.size") || !strings.Contains(text, "and 2 more") {
		t.Fatalf("Format(2) output:\n%s", text)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 6; i++ {
		r.Trace(Event{Kind: KindTxCommit, TxID: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if evs[i].TxID != want {
			t.Fatalf("ring order %v", evs)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
}

func TestWriteTraceValidJSON(t *testing.T) {
	r := NewRecorder(16)
	r.Trace(Event{Kind: KindTxBegin, TxID: 7, CPU: 0, Time: 10})
	r.Trace(Event{Kind: KindTxAbort, TxID: 7, CPU: 0, Time: 90, Dur: 80, Where: "HashMap.size", Reason: "stale read"})
	r.Trace(Event{Kind: KindBackoff, TxID: 7, CPU: 0, Time: 120, Dur: 30, Attempt: 1})
	r.Trace(Event{Kind: KindTxCommit, TxID: 7, CPU: 0, Time: 200, Dur: 190, Attempt: 1, Reads: 2, Writes: 1})
	r.Trace(Event{Kind: KindOpenCommit, TxID: 9, CPU: 1, Time: 150})
	r.Trace(Event{Kind: KindNestedRetry, TxID: 9, CPU: 1, Time: 160, Where: "TreeMap.root"})

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata lanes + process + 5 events (begin is folded into spans).
	if len(doc.TraceEvents) != 3+5 {
		t.Fatalf("trace has %d events:\n%s", len(doc.TraceEvents), buf.String())
	}
	phases := map[string]int{}
	var sawSizeConflict, sawLane1 bool
	for _, te := range doc.TraceEvents {
		ph, _ := te["ph"].(string)
		phases[ph]++
		if args, ok := te["args"].(map[string]any); ok {
			if args["where"] == "HashMap.size" {
				sawSizeConflict = true
			}
			if args["name"] == "vCPU 1" {
				sawLane1 = true
			}
		}
	}
	if phases["M"] != 3 || phases["X"] != 3 || phases["i"] != 2 {
		t.Fatalf("phase mix %v:\n%s", phases, buf.String())
	}
	if !sawSizeConflict || !sawLane1 {
		t.Fatalf("missing attribution or lane metadata:\n%s", buf.String())
	}
	// Tx ids must be renumbered densely from 1.
	if strings.Contains(buf.String(), `"tx": 7`) || !strings.Contains(buf.String(), `"tx": 1`) {
		t.Fatalf("tx ids not normalized:\n%s", buf.String())
	}
}

func TestWriteTraceSpanClamp(t *testing.T) {
	r := NewRecorder(4)
	// Dur exceeds Time: the exported span must clamp to start at 0,
	// not underflow uint64.
	r.Trace(Event{Kind: KindTxCommit, TxID: 1, CPU: 0, Time: 5, Dur: 50})
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ts": 0`) {
		t.Fatalf("span not clamped:\n%s", buf.String())
	}
}
