// Command tccbench regenerates the paper's evaluation figures on the
// deterministic virtual-CPU simulator:
//
//	Figure 1 — TestMap        (HashMap variants)
//	Figure 2 — TestSortedMap  (TreeMap variants, subMap range lookups)
//	Figure 3 — TestCompound   (two composed operations per transaction)
//	Figure 4 — SPECjbb2000    (single-warehouse, four configurations)
//	Figure 5 — TestStripedMap (disjoint-key workers on one shared map,
//	                           single-guard vs striped)
//	Figure 6 — TestMapRead90  (90%-read mix, retry-path vs MVCC-lite
//	                           snapshot reads)
//	Figure 7 — TestMapRead99  (99%-read mix, same pairing)
//
// Each figure prints one row per CPU count and one column per
// configuration; values are speedups normalized to the 1-CPU Java run,
// exactly as the paper plots them.
//
// Usage:
//
//	tccbench                  # all seven figures
//	tccbench -fig 3           # one figure
//	tccbench -ops 8192        # more work per run
//	tccbench -cpus 1,2,4,8    # custom sweep
//	tccbench -stats           # append commit/abort/violation breakdowns
//	tccbench -profile         # append TAPE-style conflict heatmaps
//	tccbench -stats-json F    # write speedups+stats+profiles as JSON to F
//	tccbench -trace F         # write a Chrome trace_event file to F
//
// A -trace file loads in Perfetto / chrome://tracing: one lane per
// virtual CPU, committed transactions as spans, conflicts and backoffs
// as annotated slices.
//
// Long-running metrics mode:
//
//	tccbench -metrics-addr 127.0.0.1:0 -run-for 30s
//
// instead of the figure sweep, runs a sustained contended workload on
// real goroutines, serves live windowed metrics over HTTP (/metrics in
// Prometheus text format, /metrics.json as JSON), starts the
// background monitor thread, and prints the bound listen address on
// the first stdout line so scripts can scrape it. -run-for 0 runs
// until interrupted.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"tcc/internal/harness"
	"tcc/internal/jbb"
	"tcc/internal/obs"
	"tcc/internal/obs/metrics"
)

// lastFigure bounds the -fig range, the all-figures loop and the report
// note; buildFigure has one case per number up to it.
const lastFigure = 7

func main() {
	var (
		figFlag     = flag.Int("fig", 0, fmt.Sprintf("figure to run (1-%d); 0 runs all", lastFigure))
		opsFlag     = flag.Int("ops", 4096, "total operations per run (divided among CPUs)")
		cpusFlag    = flag.String("cpus", "1,2,4,8,16,32", "comma-separated CPU counts")
		seedFlag    = flag.Int64("seed", 7, "deterministic schedule seed")
		statsFlag   = flag.Bool("stats", false, "print transaction statistics per run")
		profileFlag = flag.Bool("profile", false, "print per-variable conflict heatmaps")
		jsonFlag    = flag.String("stats-json", "", "write machine-readable results to `file` ('-' for stdout)")
		traceFlag   = flag.String("trace", "", "write Chrome trace_event JSON to `file` ('-' for stdout)")
		metricsFlag = flag.String("metrics-addr", "", "serve live metrics at `addr` and run a sustained workload instead of the figure sweep")
		runForFlag  = flag.Duration("run-for", 0, "with -metrics-addr, stop the sustained workload after this duration (0 = until interrupted)")
		workersFlag = flag.Int("workers", 4, "with -metrics-addr, number of workload goroutines")
	)
	flag.Parse()

	if *metricsFlag != "" {
		os.Exit(runSustained(*metricsFlag, *runForFlag, *workersFlag, *seedFlag))
	}

	cpus, err := parseCPUs(*cpusFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tccbench:", err)
		os.Exit(2)
	}

	// Profiles ride inside the JSON export, so -stats-json implies the
	// profiling pass even without -profile on the terminal.
	opts := harness.FigureOptions{Profile: *profileFlag || *jsonFlag != ""}

	var rec *obs.Recorder
	if *traceFlag != "" {
		rec = obs.NewRecorder(obs.DefaultRecorderCap)
		obs.SetTracer(rec)
		defer obs.SetTracer(nil)
	}

	var figures []harness.Figure
	run := func(n int) {
		fig := buildFigure(n, cpus, *opsFlag, *seedFlag, opts)
		figures = append(figures, fig)
		fmt.Print(fig)
		if *statsFlag {
			fmt.Print(fig.StatsString())
		}
		if *profileFlag {
			fmt.Print(fig.ProfileString(5))
		}
		fmt.Println()
	}
	if *figFlag != 0 {
		if *figFlag < 1 || *figFlag > lastFigure {
			fmt.Fprintf(os.Stderr, "tccbench: -fig must be 1..%d\n", lastFigure)
			os.Exit(2)
		}
		run(*figFlag)
	} else {
		for n := 1; n <= lastFigure; n++ {
			run(n)
		}
	}

	if *jsonFlag != "" {
		rep := harness.BuildReport(noteFor(*figFlag, *opsFlag, *seedFlag), figures...)
		if err := writeTo(*jsonFlag, rep.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "tccbench:", err)
			os.Exit(1)
		}
	}
	if rec != nil {
		obs.SetTracer(nil)
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "tccbench: trace ring overflowed, oldest %d events dropped\n", n)
		}
		if err := writeTo(*traceFlag, rec.WriteTrace); err != nil {
			fmt.Fprintln(os.Stderr, "tccbench:", err)
			os.Exit(1)
		}
	}
}

// runSustained is the -metrics-addr mode: enable the metrics plane,
// serve /metrics and /metrics.json on addr, start the background
// monitor, and drive the sustained workload until the duration elapses
// or the process is interrupted. The first stdout line is the bound
// address (resolved from :0 if requested), so scripts can scrape it.
func runSustained(addr string, runFor time.Duration, workers int, seed int64) int {
	metrics.SetEnabled(true)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tccbench:", err)
		return 1
	}
	fmt.Printf("metrics: http://%s/metrics\n", ln.Addr())

	srv := &http.Server{Handler: metrics.NewMux(metrics.Default)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	mon := metrics.NewMonitor(metrics.Default, log.New(os.Stderr, "", log.LstdFlags))
	mon.Start()

	stop := make(chan struct{})
	done := make(chan harness.SustainedResult, 1)
	go func() { done <- harness.RunSustained(workers, seed, stop) }()

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	var timeout <-chan time.Time
	if runFor > 0 {
		timeout = time.After(runFor)
	}
	select {
	case <-timeout:
	case <-interrupt:
		fmt.Fprintln(os.Stderr, "tccbench: interrupted, shutting down")
	}
	close(stop)
	res := <-done
	mon.Stop()
	srv.Close()
	<-serveErr

	st := res.Stats
	fmt.Printf("sustained: workers=%d ops=%d elapsed=%s commits=%d aborts=%d violations=%d snapshot=%d fallbacks=%d\n",
		res.Workers, res.Ops, res.Elapsed.Round(time.Millisecond),
		st.Commits, st.Aborts, st.Violations, st.SnapshotCommits, st.SnapshotFallbacks)
	return 0
}

// writeTo streams write to path, with "-" meaning stdout.
func writeTo(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func noteFor(fig, ops int, seed int64) string {
	which := fmt.Sprintf("figures 1-%d", lastFigure)
	if fig != 0 {
		which = fmt.Sprintf("figure %d", fig)
	}
	return fmt.Sprintf("tccbench %s, ops=%d, seed=%d", which, ops, seed)
}

func buildFigure(n int, cpus []int, ops int, seed int64, opts harness.FigureOptions) harness.Figure {
	p := harness.DefaultMapParams()
	p.TotalOps = ops
	switch n {
	case 1:
		return harness.RunFigureOpts("TestMap (Figure 1)", harness.TestMapConfigs(p), cpus, ops, seed, opts)
	case 2:
		return harness.RunFigureOpts("TestSortedMap (Figure 2)", harness.TestSortedMapConfigs(p), cpus, ops, seed, opts)
	case 3:
		return harness.RunFigureOpts("TestCompound (Figure 3)", harness.TestCompoundConfigs(p), cpus, ops, seed, opts)
	case 4:
		return jbb.RunFigure4Opts(cpus, ops, jbb.DefaultParams(), seed, opts)
	case 5:
		return harness.RunFigureOpts("TestStripedMap (Figure 5)", harness.StripedMapConfigs(p), cpus, ops, seed, opts)
	case 6:
		p6 := harness.ReadRatioParams(90)
		p6.TotalOps = ops
		return harness.RunFigureOpts("TestMapRead90 (Figure 6)", harness.ReadRatioConfigs(p6), cpus, ops, seed, opts)
	case 7:
		p7 := harness.ReadRatioParams(99)
		p7.TotalOps = ops
		return harness.RunFigureOpts("TestMapRead99 (Figure 7)", harness.ReadRatioConfigs(p7), cpus, ops, seed, opts)
	default:
		// main range-checks -fig, so only a caller bug gets here.
		panic(fmt.Sprintf("tccbench: no figure %d", n))
	}
}

func parseCPUs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid CPU count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no CPU counts given")
	}
	return out, nil
}
