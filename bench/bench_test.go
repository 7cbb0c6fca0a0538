package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tcc/internal/harness"
)

// plans draws n transactions of a workload the way one worker would and
// renders them, so sequences can be compared.
func plans(workload string, seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotAccounts-1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch workload {
		case "map-long":
			fmt.Fprintln(&b, drawMapLong(rng, i))
		case "sorted-scan":
			fmt.Fprintln(&b, drawSortedScan(rng, i))
		case "queue-pipeline":
			fmt.Fprintln(&b, drawQueue(rng))
		case "compound-hot":
			fmt.Fprintln(&b, drawHot(rng, zipf))
		}
	}
	return b.String()
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, d := range workloads {
		a, b, c := plans(d.name, 7, 500), plans(d.name, 7, 500), plans(d.name, 8, 500)
		if a == "" {
			t.Fatalf("%s: no plans drawn", d.name)
		}
		if a != b {
			t.Errorf("%s: the same seed drew different operations", d.name)
		}
		if a == c {
			t.Errorf("%s: different seeds drew the same operations", d.name)
		}
	}
}

func TestPlanMixes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	readOnly, gets, ops := 0, 0, 0
	for i := 0; i < 4000; i++ {
		p := drawMapLong(rng, i)
		if p.readOnly {
			readOnly++
			continue
		}
		for _, k := range p.kind {
			ops++
			if k == opGet {
				gets++
			}
		}
	}
	if readOnly != 1000 {
		t.Errorf("map-long: %d of 4000 transactions read-only, want every 4th", readOnly)
	}
	if share := float64(gets) / float64(ops); math.Abs(share-0.8) > 0.02 {
		t.Errorf("map-long: Get share %.3f of update transactions, want 0.80", share)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	s := make([]float64, 101)
	for i := range s {
		s[i] = float64(i)
	}
	for _, c := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {99, 99}, {100, 100}, {12.5, 12.5}} {
		if got := percentileSorted(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentileSorted([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentileSorted(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestWorseAndVerdict(t *testing.T) {
	if w := worse("higher", 100, 90); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("higher-is-better 100→90: worse by %v, want 0.1", w)
	}
	if w := worse("lower", 100, 90); math.Abs(w+0.1) > 1e-12 {
		t.Errorf("lower-is-better 100→90: worse by %v, want -0.1", w)
	}
	mv := func(better string, bound float64, v ...float64) metricValue {
		return newMetricValue(metricDef{Name: "m", Better: better, Bound: bound}, v)
	}
	for _, c := range []struct {
		name     string
		old, cur metricValue
		want     string
	}{
		{"inside the bound", mv("lower", 0.1, 100, 101, 102), mv("lower", 0.1, 104, 105, 106), "within"},
		{"slower beyond the bound", mv("lower", 0.1, 100, 101, 102), mv("lower", 0.1, 120, 121, 122), "worse"},
		{"faster beyond the bound", mv("higher", 0.1, 100, 101, 102), mv("higher", 0.1, 120, 121, 122), "better"},
		{"wide and interleaved", mv("lower", 0.1, 80, 100, 130), mv("lower", 0.1, 90, 115, 125), "unresolved"},
		{"wide but disjoint", mv("lower", 0.1, 80, 100, 120), mv("lower", 0.1, 150, 170, 190), "worse"},
		{"absent", mv("lower", 0.1, 1), mv("lower", 0.1), "missing"},
	} {
		if got := verdict(c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestViolationClass(t *testing.T) {
	for reason, want := range map[string]int{
		"map: key conflict":             violKey,
		"map: size conflict":            violSize,
		"sortedmap: range conflict":     violRange,
		"sortedmap: first-key conflict": violEndpoint,
		"sortedmap: last-key conflict":  violEndpoint,
		"map: emptiness conflict":       violEndpoint,
		"queue: no longer empty":        violEndpoint,
		"queue: refilled on abort":      violEndpoint,
	} {
		if got := violationClass(reason); got != want {
			t.Errorf("%q: class %d, want %d", reason, got, want)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestRegistryMatchesBenchmarkJSON keeps the names the program prints and
// the names BENCHMARK.json promises in step, inside the contract's limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(workloads) < 2 || len(workloads) > 8 || len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json, want 2 to 8 and equal", len(workloads), len(f.Workloads))
	}
	for i, d := range workloads {
		checkName(d.name, "")
		if f.Workloads[i].Name != d.name || f.Workloads[i].Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, d.name, d.why)
		}
		if len(d.why) > 200 || strings.Contains(d.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", d.name)
		}
	}

	if len(endToEnd) > 16 || len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the program, %d in BENCHMARK.json, want at most 16 and equal", len(endToEnd), len(f.EndToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		checkName(d.Name, d.Unit)
		e := f.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, program has %+v", i, e, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}

	if len(perLayer) > 128 || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the program, %d in BENCHMARK.json, want at most 128 and equal", len(perLayer), len(f.PerLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name, d.Unit)
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
		if e := f.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, program has %s %s %s", i, e, d.Name, d.Unit, d.Better)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
}

// TestReadmeNamesEverything keeps README.md the place where every
// workload and metric is defined: a name added to the registry without a
// line there fails here. Ladder metrics may appear as their rung
// ("core.map16_get", each `_ns` and `_allocs`).
func TestReadmeNamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, d := range workloads {
		if !strings.Contains(readme, "`"+d.name+"`") {
			t.Errorf("README.md does not mention workload %s", d.name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		rung := strings.TrimSuffix(strings.TrimSuffix(d.Name, "_ns"), "_allocs")
		if !strings.Contains(readme, "`"+d.Name+"`") && !strings.Contains(readme, "`"+rung+"`") {
			t.Errorf("README.md does not mention metric %s", d.Name)
		}
	}
}

// TestInvariantsBite runs each workload briefly on every layer that
// keeps state, then checks that the invariant check accepts the true
// tally and rejects a tally that is off by one.
func TestInvariantsBite(t *testing.T) {
	for _, d := range workloads {
		for _, lay := range []layer{layerCore, layerCoreAlt, layerStmcol, layerLock} {
			run := func(skew func(*tally)) error {
				pl := &harness.RealPlatform{Seed: 5}
				inst, ex := d.newInstance(lay, pl, nil)
				if err := inst.populate(); err != nil {
					t.Fatal(err)
				}
				var total tally
				pl.Run(1, func(hw *harness.Worker) {
					w := newWorker(hw, ex)
					step := inst.runner(w)
					for i := 0; i < 2000; i++ {
						step()
					}
					if w.failed > 0 {
						t.Errorf("%s layer %d: %d transactions failed", d.name, lay, w.failed)
					}
					total = w.tally
				})
				skew(&total)
				return inst.check(total)
			}
			if err := run(func(*tally) {}); err != nil {
				t.Errorf("%s layer %d: true tally rejected: %v", d.name, lay, err)
			}
			if err := run(func(tl *tally) { tl.netIns++; tl.puts++; tl.opened++ }); err == nil {
				t.Errorf("%s layer %d: a tally off by one was accepted", d.name, lay)
			}
		}
	}
}

// TestSmoke runs every phase of every workload with tiny counts at W = 2
// (under -race this is the driver's race test), then checks the shape of
// what came out: every promised metric, the per-layer signatures each
// workload exists for, a result line of exactly the contract's keys, and
// a trace file cmd/tracecheck accepts.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 3, seconds: 0.5, trace: -1, smoke: true, workers: 2, traceDir: dir}
	for _, d := range workloads {
		rep := runWorkload(d, o)
		if !rep.Correct {
			t.Fatalf("%s: not correct: %v", d.name, rep.Errors)
		}
		layer := map[string]metricValue{}
		for _, m := range rep.PerLayer {
			layer[m.Name] = m
		}
		for _, m := range rep.EndToEnd {
			if m.N == 0 || m.Median <= 0 || math.IsNaN(m.Median) {
				t.Errorf("%s: end-to-end %s = %v (n=%d), want a positive number", d.name, m.Name, m.Median, m.N)
			}
		}
		if len(rep.EndToEnd) != len(endToEnd) || len(rep.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics reported, want %d and %d",
				d.name, len(rep.EndToEnd), len(rep.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, name := range []string{"stm.begin_us", "stm.commit_us", "driver.trace_overhead_share", "stmcol.tx_per_s",
			"concurrent.sim16_speedup", "core.stripe_alt_tx_per_s", "driver.w1_tx_per_s", "host.calib_ns", "core.map16_get_ns", "sim.repeat_exact"} {
			if layer[name].N == 0 {
				t.Errorf("%s: per-layer %s missing", d.name, name)
			}
		}
		if got := layer["core.scan_us"].N > 0; got != (d.name == "sorted-scan") {
			t.Errorf("%s: core.scan_us present = %v", d.name, got)
		}
		if layer["sim.repeat_exact"].Median != 1 {
			t.Errorf("%s: second sim pass differed from the first", d.name)
		}
		switch d.name {
		case "map-long":
			if v := layer["stm.open_commits_per_tx"].Median; v < 5 {
				t.Errorf("map-long: %v open commits per transaction, want >= 5", v)
			}
			if v := layer["stm.snapshot_share"].Median; math.Abs(v-0.25) > 0.01 {
				t.Errorf("map-long: snapshot share %v, want 0.25", v)
			}
		case "queue-pipeline":
			if v := layer["stm.handler_runs_per_tx"].Median; v < 1 {
				t.Errorf("queue-pipeline: %v handler runs per transaction, want >= 1", v)
			}
		case "compound-hot":
			if v := layer["stm.user_aborts_per_tx"].Median; v <= 0 {
				t.Errorf("compound-hot: no user aborts")
			}
		}

		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
			t.Fatalf("%s: result line: %v", d.name, err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("%s: result line has keys %v", d.name, line)
		}

		if rep.TraceFile == "" {
			t.Fatalf("%s: no trace file written", d.name)
		}
		if _, err := exec.LookPath("go"); err != nil {
			t.Log("go not in PATH: trace file not validated")
			continue
		}
		out, err := exec.Command("go", "run", "tcc/cmd/tracecheck", "-trace", rep.TraceFile).CombinedOutput()
		if err != nil {
			t.Errorf("%s: tracecheck rejected %s: %v\n%s", d.name, rep.TraceFile, err, out)
		}
	}
}
