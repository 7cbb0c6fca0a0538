package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tcc/internal/harness"
	"tcc/internal/obs"
	"tcc/internal/stm"
	"tcc/internal/stmcol"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestBuildFigureSmoke runs each figure on a tiny configuration — the
// same in-process path `tccbench -fig N -ops 64 -cpus 1,2` takes — so a
// regression anywhere in the harness or workloads fails fast here
// rather than only in a full benchmark run. The all-figures report note
// must name the range that loop covers.
func TestBuildFigureSmoke(t *testing.T) {
	cpus := []int{1, 2}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7} {
		fig := buildFigure(n, cpus, 64, 7, harness.FigureOptions{})
		out := fig.String()
		if out == "" {
			t.Errorf("figure %d produced no output", n)
		}
		for _, cpu := range []string{"1", "2"} {
			if !strings.Contains(out, cpu) {
				t.Errorf("figure %d output missing CPU row %s:\n%s", n, cpu, out)
			}
		}
		if stats := fig.StatsString(); stats == "" {
			t.Errorf("figure %d produced no stats output", n)
		}
	}
	if note := noteFor(0, 64, 7); !strings.Contains(note, "figures 1-7,") {
		t.Errorf("all-figures note %q does not name figures 1-7", note)
	}
}

// TestReadRatioFigureSnapshotStats: the figure 7 snapshot
// configurations actually ride the MVCC-lite path — their runs record
// snapshot commits with zero read-side lost work, and the retry
// configurations record none.
func TestReadRatioFigureSnapshotStats(t *testing.T) {
	fig := buildFigure(7, []int{2}, 128, 7, harness.FigureOptions{})
	for _, s := range fig.Series {
		st := s.Stats[2]
		snap := strings.Contains(s.Name, "snapshot")
		if snap && st.SnapshotCommits == 0 {
			t.Errorf("series %q recorded no snapshot commits", s.Name)
		}
		if !snap && st.SnapshotCommits != 0 {
			t.Errorf("series %q recorded %d snapshot commits on the retry path", s.Name, st.SnapshotCommits)
		}
		if stats := fig.StatsString(); snap && !strings.Contains(stats, "snapshot=") {
			t.Errorf("stats rendering missing snapshot counts:\n%s", stats)
		}
	}
}

// TestBuildFigureDeterministic: same seed, same figure — byte-identical
// output, the property the whole virtual-CPU simulator exists for.
func TestBuildFigureDeterministic(t *testing.T) {
	a := buildFigure(1, []int{1, 2}, 64, 7, harness.FigureOptions{}).String()
	b := buildFigure(1, []int{1, 2}, 64, 7, harness.FigureOptions{}).String()
	if a != b {
		t.Errorf("same seed produced different output:\n%s\n---\n%s", a, b)
	}
}

// TestBuildFigureProfiled exercises the -profile path: the profiled
// figure must carry per-run reports and render a heatmap.
func TestBuildFigureProfiled(t *testing.T) {
	fig := buildFigure(1, []int{2}, 64, 7, harness.FigureOptions{Profile: true})
	for _, s := range fig.Series {
		if s.Profiles == nil || s.Profiles[2] == nil {
			t.Fatalf("series %q has no profile", s.Name)
		}
	}
	rep := harness.BuildReport("t", fig)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("report JSON invalid")
	}
}

// goldenConfig is a hash-free contended workload for the golden trace:
// every transaction bumps a shared labelled counter and cycles the
// shared queue, so a 2-CPU sim run produces commits, conflicts and
// backoffs at exactly the same virtual cycles every run. (The TestMap
// workloads cannot be golden-tested byte-for-byte: stmcol's HashMap
// seeds maphash per process, so bucket assignments — and therefore
// read/write-set sizes — vary across processes.)
func goldenConfig() harness.Config {
	return harness.Config{
		Name: "golden",
		Setup: func(pl harness.Platform) func(w *harness.Worker) {
			counter := stm.NewVar(0).SetLabel("golden.counter")
			q := stmcol.NewQueue[int]().SetName("golden.queue")
			return func(w *harness.Worker) {
				_ = w.Thread.Atomic(func(tx *stm.Tx) error {
					w.Compute(64)
					counter.Set(tx, counter.Get(tx)+1)
					q.Enqueue(tx, counter.Get(tx))
					if q.Size(tx) > 4 {
						q.Dequeue(tx)
					}
					w.Compute(64)
					return nil
				})
			}
		},
	}
}

// goldenTrace captures a small deterministic run's Chrome trace. The
// recorder's WriteTrace renumbers transaction ids by first appearance,
// so the output is stable even though the process-wide txid counter
// depends on which tests ran before this one.
func goldenTrace(t *testing.T) []byte {
	t.Helper()
	rec := obs.NewRecorder(obs.DefaultRecorderCap)
	obs.SetTracer(rec)
	defer obs.SetTracer(nil)

	harness.RunFigureOpts("golden", []harness.Config{goldenConfig()}, []int{2}, 64, 7, harness.FigureOptions{})

	obs.SetTracer(nil)
	if rec.Dropped() != 0 {
		t.Fatalf("golden run overflowed the ring: %d dropped", rec.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGolden pins the exact Chrome trace_event output of a small
// deterministic TestMap run. Regenerate with `go test ./cmd/tccbench
// -run TestTraceGolden -update` after intentional format changes.
func TestTraceGolden(t *testing.T) {
	got := goldenTrace(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace output diverged from %s (rerun with -update if intended)\ngot %d bytes, want %d bytes",
			golden, len(got), len(want))
	}
}

// TestTraceGoldenIsValidChromeJSON double-checks the golden bytes parse
// as the trace_event shape a viewer expects.
func TestTraceGoldenIsValidChromeJSON(t *testing.T) {
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(goldenTrace(t), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	spans := 0
	for i, e := range tf.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph == "" {
			t.Fatalf("event %d has no phase: %v", i, e)
		}
		if ph == "X" {
			spans++
			if _, ok := e["dur"]; !ok {
				t.Fatalf("complete event %d has no dur: %v", i, e)
			}
		}
	}
	if spans == 0 {
		t.Fatal("trace has no transaction spans")
	}
}

func TestParseCPUs(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"1,2,4", []int{1, 2, 4}, true},
		{" 1 , 8 ", []int{1, 8}, true},
		{"1,,2", []int{1, 2}, true},
		{"", nil, false},
		{"0", nil, false},
		{"-2", nil, false},
		{"two", nil, false},
	}
	for _, c := range cases {
		got, err := parseCPUs(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseCPUs(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseCPUs(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
