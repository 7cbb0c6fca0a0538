package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcc/internal/collections"
	"tcc/internal/core"
	"tcc/internal/obs/metrics"
	"tcc/internal/stm"
)

// realScrape renders the process-global registry — the stm package's
// init has registered every STM family against it — after running
// enough transactions to populate it, plus the monitor and a named
// collection so the required collection/monitor families exist.
func realScrape(t *testing.T) []byte {
	t.Helper()
	metrics.SetEnabled(true)
	defer metrics.SetEnabled(false)

	// The monitor registers tcc_monitor_*, a named collection
	// registers tcc_collection_violations_total.
	metrics.NewMonitor(metrics.Default, nil).Tick()
	core.NewTransactionalQueue[int](collections.NewLinkedQueue[int]()).SetName("check.queue")

	th := stm.NewThread(&stm.RealClock{}, 1)
	v := stm.NewVar(0)
	for i := 0; i < 10; i++ {
		if err := th.Atomic(func(tx *stm.Tx) error {
			v.Set(tx, v.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	var b bytes.Buffer
	if err := metrics.WritePrometheus(&b, metrics.Default); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestCheckPromAcceptsRealExposition(t *testing.T) {
	if err := checkProm(bytes.NewReader(realScrape(t))); err != nil {
		t.Errorf("checkProm rejected a real exposition: %v", err)
	}
}

func TestCheckPromURL(t *testing.T) {
	scrape := realScrape(t)
	srv := httptest.NewServer(metrics.NewMux(metrics.Default))
	defer srv.Close()
	_ = scrape // registry already populated by realScrape
	if err := checkPromURL(srv.URL + "/metrics"); err != nil {
		t.Errorf("checkPromURL rejected a live endpoint: %v", err)
	}
}

func TestCheckPromRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "required family"},
		{
			"sample before type",
			"orphan_total 3\n",
			"precedes its # TYPE",
		},
		{
			"non-numeric value",
			"# HELP x_total x\n# TYPE x_total counter\nx_total pear\n",
			"non-numeric",
		},
		{
			"family without samples",
			"# HELP x_total x\n# TYPE x_total counter\n",
			"no samples",
		},
		{
			"type without help",
			"# TYPE x_total counter\nx_total 1\n",
			"no # HELP",
		},
		{
			"unbalanced braces",
			"# HELP x x\n# TYPE x gauge\nx{k=\"v\" 1\n",
			"unbalanced",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkProm(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("checkProm(%q) = %v, want error containing %q", c.in, err, c.want)
			}
		})
	}
}

// TestCheckPromWindowDecayVisible drives the registry clock past the
// window and confirms the scrape's windowed families drop to zero
// while totals survive — the end-to-end view of rotation.
func TestCheckPromWindowDecayVisible(t *testing.T) {
	r := metrics.NewRegistry(time.Second)
	c := r.Counter("decay_total", "d")
	t0 := time.Unix(3000, 0)
	r.Advance(t0)
	c.Add(5)
	r.Advance(t0.Add(10 * time.Second))
	var b bytes.Buffer
	if err := metrics.WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "decay_total 5") {
		t.Fatalf("cumulative total lost:\n%s", out)
	}
	if !strings.Contains(out, "decay_total_window 0") {
		t.Fatalf("windowed view did not decay:\n%s", out)
	}
}
