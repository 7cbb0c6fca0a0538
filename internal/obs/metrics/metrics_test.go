package metrics

import (
	"testing"
	"time"
)

func TestCounterTotalAndWindow(t *testing.T) {
	r := NewRegistry(800 * time.Millisecond) // 100ms slots
	c := r.Counter("test_events_total", "events")
	c.Add(3)
	c.Inc()
	if got := c.Total(); got != 4 {
		t.Fatalf("Total = %d, want 4", got)
	}
	if got := c.Windowed(); got != 4 {
		t.Fatalf("Windowed = %d, want 4", got)
	}
}

func TestCounterShardedLanes(t *testing.T) {
	r := NewRegistry(time.Second)
	c := r.CounterSharded("test_lanes_total", "events", 4)
	for lane := 0; lane < 16; lane++ {
		c.AddLane(lane, 1)
	}
	if got := c.Total(); got != 16 {
		t.Fatalf("Total = %d, want 16", got)
	}
	// Same name+labels must return the same instrument.
	if c2 := r.CounterSharded("test_lanes_total", "events", 4); c2 != c {
		t.Fatalf("second registration returned a different instrument")
	}
}

// TestWindowRotation is the windowed-histogram rotation test: counts
// and quantiles must decay to zero once the window passes, while
// cumulative totals survive.
func TestWindowRotation(t *testing.T) {
	r := NewRegistry(800 * time.Millisecond) // 8 slots × 100ms
	c := r.Counter("test_rot_total", "events")
	s := r.Summary("test_rot_latency", "latency")

	t0 := time.Unix(1000, 0)
	r.Advance(t0) // initializes the rotation clock

	c.Add(10)
	s.Observe(0, 100)
	s.Observe(0, 200)

	// Half the window: everything still visible.
	r.Advance(t0.Add(400 * time.Millisecond))
	if got := c.Windowed(); got != 10 {
		t.Fatalf("after half window: Windowed = %d, want 10", got)
	}
	if sn := s.Snapshot(); sn.Count != 2 || sn.P99 == 0 {
		t.Fatalf("after half window: summary = %+v, want count 2 and nonzero p99", sn)
	}

	// Past the full window: windowed views decay to zero.
	r.Advance(t0.Add(2 * time.Second))
	if got := c.Windowed(); got != 0 {
		t.Fatalf("after window passed: Windowed = %d, want 0", got)
	}
	if sn := s.Snapshot(); sn.Count != 0 || sn.Sum != 0 || sn.P50 != 0 || sn.P999 != 0 {
		t.Fatalf("after window passed: summary = %+v, want all zero", sn)
	}
	if got := c.Total(); got != 10 {
		t.Fatalf("cumulative total decayed: Total = %d, want 10", got)
	}
}

// TestWindowPartialDecay checks that old observations age out while
// fresh ones inside the window survive the same Advance.
func TestWindowPartialDecay(t *testing.T) {
	r := NewRegistry(800 * time.Millisecond)
	c := r.Counter("test_partial_total", "events")

	t0 := time.Unix(2000, 0)
	r.Advance(t0)
	c.Add(5) // lands in the initial slot

	r.Advance(t0.Add(600 * time.Millisecond)) // 6 slots later
	c.Add(7)                                  // lands in a fresh slot

	// 4 more slots: the first write's slot has aged out (10 slots > 8),
	// the second (4 slots old) is still live.
	r.Advance(t0.Add(1 * time.Second))
	if got := c.Windowed(); got != 7 {
		t.Fatalf("Windowed = %d, want 7 (old 5 aged out, fresh 7 live)", got)
	}
	if got := c.Total(); got != 12 {
		t.Fatalf("Total = %d, want 12", got)
	}
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry(time.Second)
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Fatalf("Value = %v, want 0.25", got)
	}
	v := 3.0
	r.GaugeFunc("test_gauge_fn", "sampled", func() float64 { return v })
	fams := r.Gather()
	var sampled float64
	for _, f := range fams {
		if f.Name == "test_gauge_fn" {
			sampled = f.Metrics[0].Value
		}
	}
	if sampled != 3.0 {
		t.Fatalf("GaugeFunc sampled %v, want 3", sampled)
	}
}

func TestSummaryQuantiles(t *testing.T) {
	r := NewRegistry(time.Second)
	s := r.Summary("test_quant", "values")
	// 1000 small values and 10 large: p50 stays in the small bucket
	// range, p999 reaches the large one.
	for i := 0; i < 1000; i++ {
		s.Observe(i, 7) // bucket for 4..7
	}
	for i := 0; i < 10; i++ {
		s.Observe(i, 1000) // bucket for 512..1023
	}
	sn := s.Snapshot()
	if sn.Count != 1010 {
		t.Fatalf("Count = %d, want 1010", sn.Count)
	}
	if sn.Sum != 1000*7+10*1000 {
		t.Fatalf("Sum = %d, want %d", sn.Sum, 1000*7+10*1000)
	}
	if sn.P50 != 7 {
		t.Fatalf("P50 = %d, want 7 (upper edge of the 4..7 bucket)", sn.P50)
	}
	if sn.P999 != 1023 {
		t.Fatalf("P999 = %d, want 1023 (upper edge of the 512..1023 bucket)", sn.P999)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry(time.Second)
	r.Counter("test_mismatch", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("test_mismatch", "x")
}

func TestOnOff(t *testing.T) {
	if On() {
		t.Fatalf("metrics enabled at package init")
	}
	SetEnabled(true)
	if !On() {
		t.Fatalf("SetEnabled(true) not visible")
	}
	SetEnabled(false)
	if On() {
		t.Fatalf("SetEnabled(false) not visible")
	}
}
