package main

// One workload's run, phase by phase, and the report it fills.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"tcc/internal/stm"
)

// options are what the command line fixes for a run.
type options struct {
	seed    int64
	seconds float64
	// trace is 0 for the end-to-end metrics alone, 1 for the per-layer
	// metrics alone, -1 for both.
	trace    int
	smoke    bool
	workers  int
	traceDir string
}

// budget sizes the phases of one workload's run from its seconds.
type budget struct {
	// setupBuilds is how many times the state is built for setup_s. A
	// build takes 0.1 to 5 ms, short enough for one descheduled vCPU to
	// double it: on the reference host the median of 21 builds moved by
	// 30 % between repeats in one process, the median of 101 by 8 %.
	setupBuilds    int
	slices         int
	sliceDur, warm time.Duration
	// simTx transactions run on the simulator on internal/core (either
	// striping, so the two compare), slowSimTx on the layers whose
	// simulation is many times slower.
	simTx, slowSimTx int
	simPasses        int
	tracedDur        time.Duration
	spanCap          int
	layerDur         time.Duration
	ladderReps       int
	ladderDiv        int
}

// budgetFor splits the measured seconds. A slice is always a tenth of
// them. An end-to-end run spends them all on ten slices; a per-layer run
// spends five slices on the wall-clock metrics and the counters, one on
// the traced pass and seven shorter ones on the other layers, and its
// simulator passes and ladder run fixed counts.
func budgetFor(o options) budget {
	s := time.Duration(o.seconds * float64(time.Second))
	b := budget{setupBuilds: 101, slices: 10, sliceDur: s / 10, simTx: 32768, simPasses: 1}
	if o.trace == 1 {
		b.slices = 5
	}
	if o.trace != 0 {
		b.simPasses = 2
		b.slowSimTx = 2048
		b.tracedDur = s / 10
		b.spanCap = 1 << 19
		b.layerDur = s / 25
		b.ladderReps, b.ladderDiv = 5, 1
	}
	if o.smoke {
		b.setupBuilds = 5
		b.slices = min(b.slices, 3)
		b.simTx, b.slowSimTx = 512, 512
		b.spanCap = 1 << 14
		b.ladderReps, b.ladderDiv = 2, 50
	}
	b.warm = b.sliceDur / 10
	return b
}

// metricValue is one metric as reported.
type metricValue struct {
	Name   string  `json:"name"`
	Source string  `json:"source"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Q1 and Q3 are the quartiles -compare takes a metric's spread from:
	// with 101 set-up builds the extremes say nothing.
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values,omitempty"`
}

func newMetricValue(d metricDef, v sample) metricValue {
	mv := metricValue{Name: d.Name, Source: d.Source, Unit: d.Unit, Better: d.Better, Bound: d.Bound, N: len(v), Values: v}
	if len(v) > 0 {
		s := slices.Clone(v)
		slices.Sort(s)
		mv.Min, mv.Max = s[0], s[len(s)-1]
		mv.Q1, mv.Median, mv.Q3 = percentileSorted(s, 25), percentileSorted(s, 50), percentileSorted(s, 75)
	}
	return mv
}

// workloadReport is everything one workload's run produced.
type workloadReport struct {
	Workload  string        `json:"workload"`
	Why       string        `json:"why"`
	Correct   bool          `json:"correct"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	Errors    []string      `json:"errors,omitempty"`
	EndToEnd  []metricValue `json:"end_to_end,omitempty"`
	PerLayer  []metricValue `json:"per_layer,omitempty"`
	TraceFile string        `json:"trace_file,omitempty"`
	WallS     float64       `json:"wall_s"`
}

// run collects one workload's samples and problems as the phases go.
type run struct {
	def  workloadDef
	o    options
	b    budget
	lat  latBuffers
	vals map[string]sample
	rep  *workloadReport
}

func (r *run) put(name string, v ...float64) { r.vals[name] = append(r.vals[name], v...) }

func (r *run) problem(format string, args ...any) {
	r.rep.Errors = append(r.rep.Errors, fmt.Sprintf(format, args...))
}

// slice runs one slice and books its transactions and failures.
func (r *run) slice(c sliceCfg, what string) (sliceResult, bool) {
	c.def = r.def
	res, err := runSlice(c, r.lat)
	if err != nil {
		r.problem("%s: %v", what, err)
		r.rep.Attempted++
		r.rep.Failed++
		return res, false
	}
	r.rep.Attempted += res.txs
	r.rep.Failed += res.failed
	if res.invariant != nil {
		r.problem("%s: invariant: %v", what, res.invariant)
	} else if res.failed > 0 {
		r.problem("%s: %d transactions failed or ran over %v", what, res.failed, txWatchdog)
	}
	return res, true
}

// sim runs one simulator pass and books its failures.
func (r *run) sim(lay layer, what string) (simPass, bool) {
	simTx := r.b.simTx
	if lay == layerStmcol || lay == layerLock {
		simTx = r.b.slowSimTx
	}
	p, err := runSim(r.def, lay, r.o.seed, simTx)
	if err != nil {
		r.problem("%s: %v", what, err)
		r.rep.Failed++
		return p, false
	}
	r.rep.Attempted += 2 * int64(simTx)
	if p.invariant != nil {
		r.problem("%s: invariant: %v", what, p.invariant)
		r.rep.Failed += 2 * int64(simTx)
	} else if p.failed > 0 {
		r.problem("%s: %d transactions failed", what, p.failed)
		r.rep.Failed += p.failed
	}
	return p, true
}

// runWorkload runs every phase the options ask for.
func runWorkload(def workloadDef, o options) workloadReport {
	t0 := time.Now()
	rep := workloadReport{Workload: def.name, Why: def.why}
	r := &run{def: def, o: o, b: budgetFor(o), vals: map[string]sample{}, rep: &rep}
	r.lat = newLatBuffers(o.workers, max(r.b.sliceDur, r.b.tracedDur, r.b.layerDur))

	if o.trace != 1 {
		setup, err := measureSetup(def, o.seed, r.b.setupBuilds)
		if err != nil {
			r.problem("set-up: %v", err)
			rep.Failed++
		}
		r.put("setup_s", setup...)
	}
	rate := r.mainSlices()
	r.simPasses()
	if o.trace != 0 {
		r.tracedSlice(rate)
		r.otherLayers(rate)
		for name, v := range runLadder(r.b.ladderReps, r.b.ladderDiv) {
			r.put(name, v...)
		}
	}

	if o.trace != 1 {
		for _, d := range endToEnd {
			rep.EndToEnd = append(rep.EndToEnd, newMetricValue(d, r.vals[d.Name]))
		}
	}
	if o.trace != 0 {
		r.put("driver.failed_share", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
		for _, d := range perLayer {
			rep.PerLayer = append(rep.PerLayer, newMetricValue(d, r.vals[d.Name]))
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.Errors) == 0
	rep.WallS = time.Since(t0).Seconds()
	return rep
}

// mainSlices runs the untraced slices of the workload's own layer: the
// end-to-end numbers and the stm counters. It returns the median rate.
func (r *run) mainSlices() float64 {
	var stats stm.Stats
	var txs int64
	for i := 0; i < r.b.slices; i++ {
		res, ok := r.slice(sliceCfg{lay: layerCore, workers: r.o.workers, seed: r.o.seed*100 + int64(i),
			warm: r.b.warm, dur: r.b.sliceDur}, fmt.Sprintf("slice %d", i))
		if !ok {
			continue
		}
		r.put("driver.tx_per_s", res.txPerS)
		r.put("driver.tx_p50_us", res.p50us)
		r.put("driver.tx_p99_us", res.p99us)
		r.put("driver.cpu_us_per_tx", res.cpuUsPerTx)
		r.put("allocs_per_tx", res.allocsPerTx)
		r.put("bytes_per_tx", res.bytesPerTx)
		r.put("core.heap_live_kb", res.heapLiveKB)
		stats.Add(res.stats)
		txs += res.txs
	}
	if txs == 0 {
		return 0
	}
	per := func(n uint64) float64 { return float64(n) / float64(txs) }
	r.put("stm.aborts_per_tx", per(stats.Aborts))
	r.put("stm.violations_per_tx", per(stats.Violations))
	r.put("stm.user_aborts_per_tx", per(stats.UserAborts))
	r.put("stm.open_commits_per_tx", per(stats.OpenCommits))
	r.put("stm.open_retries_per_tx", per(stats.OpenRetries))
	r.put("stm.handler_runs_per_tx", per(stats.HandlerRuns))
	r.put("stm.snapshot_share", float64(stats.SnapshotCommits)/float64(max(stats.Commits, 1)))
	r.put("stm.snapshot_fallbacks_per_tx", per(stats.SnapshotFallbacks))
	r.put("driver.attempts_per_tx", per(stats.Commits+stats.UserAborts+stats.Aborts+stats.Violations))
	var byClass [4]uint64
	for reason, n := range stats.ViolationsByReason {
		byClass[violationClass(reason)] += n
	}
	r.put("semlock.viol_key_per_tx", per(byClass[violKey]))
	r.put("semlock.viol_size_per_tx", per(byClass[violSize]))
	r.put("semlock.viol_range_per_tx", per(byClass[violRange]))
	r.put("semlock.viol_endpoint_per_tx", per(byClass[violEndpoint]))
	return median(r.vals["driver.tx_per_s"])
}

const (
	violKey = iota
	violSize
	violRange
	violEndpoint
)

// violationClass sorts a violation reason (internal/core's "<name>: key
// conflict" and friends) into the semantic lock that raised it.
func violationClass(reason string) int {
	switch {
	case strings.Contains(reason, "first-key"), strings.Contains(reason, "last-key"),
		strings.Contains(reason, "empt"), strings.Contains(reason, "refilled"):
		return violEndpoint
	case strings.Contains(reason, "range"):
		return violRange
	case strings.Contains(reason, "size"):
		return violSize
	}
	return violKey
}

// simPasses runs the workload's own layer on the simulator, twice when
// the per-layer metrics are wanted so sim.repeat_exact can be set.
func (r *run) simPasses() {
	first, ok := r.sim(layerCore, "sim")
	if !ok {
		return
	}
	r.put("sim16_speedup", first.speedup())
	r.put("sim.makespan1", first.makespan1)
	r.put("sim.makespan16", first.makespan16)
	r.put("sim.aborts16", float64(first.stats16.Aborts))
	r.put("sim.violations16", float64(first.stats16.Violations))
	r.put("sim.lost_per_tx16", first.lost())
	r.put("sim.wall_s", first.wallS)
	if r.b.simPasses < 2 {
		return
	}
	if second, ok := r.sim(layerCore, "sim repeat"); ok {
		exact := 0.0
		if first.same(second) {
			exact = 1
		}
		r.put("sim.repeat_exact", exact)
	}
}

// tracedSlice runs the one traced slice, derives the span metrics and
// writes the trace file.
func (r *run) tracedSlice(untracedRate float64) {
	res, ok := r.slice(sliceCfg{lay: layerCore, workers: r.o.workers, seed: r.o.seed*100 + 40,
		warm: r.b.warm, dur: r.b.tracedDur, spanCap: r.b.spanCap}, "traced slice")
	if !ok {
		return
	}
	s := summarize(res.recs)
	if s.txs == 0 {
		r.problem("traced slice: no complete transaction recorded")
		return
	}
	r.put("stm.begin_us", s.beginUs)
	r.put("stm.commit_us", s.commitUs)
	r.put("stm.wasted_share", s.wastedShare)
	r.put("core.self_share", s.selfShare)
	r.put("driver.think_share", s.thinkShare)
	for k := spanGet; k < numSpanKinds; k++ {
		if s.calls[k] > 0 {
			r.put("core."+spanNames[k]+"_us", s.callUs[k])
		}
	}
	if untracedRate > 0 {
		r.put("driver.trace_overhead_share", 1-res.txPerS/untracedRate)
	}
	path := filepath.Join(r.o.traceDir, "trace-"+r.def.name+".json")
	if err := writeChromeTrace(path, r.def.name, res.recs); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: trace not written: %v\n", r.def.name, err)
		return
	}
	r.rep.TraceFile = path
}

// otherLayers runs the same workload bound to the other layers, one
// short slice each, and the simulator where the layer has a sim metric.
func (r *run) otherLayers(mainRate float64) {
	seed := r.o.seed*100 + 50
	short := func(lay layer, workers int, proto, what string) (sliceResult, bool) {
		seed++
		return r.slice(sliceCfg{lay: lay, workers: workers, seed: seed, proto: proto,
			warm: r.b.layerDur / 10, dur: r.b.layerDur}, what)
	}
	for _, l := range []struct {
		lay    layer
		prefix string
	}{{layerStmcol, "stmcol."}, {layerLock, "concurrent."}, {layerCoreAlt, "core.stripe_alt_"}} {
		if res, ok := short(l.lay, r.o.workers, "", l.prefix+"slice"); ok {
			r.put(l.prefix+"tx_per_s", res.txPerS)
			if l.lay == layerStmcol {
				r.put("stmcol.lost_per_tx", float64(res.stats.Aborts+res.stats.Violations)/float64(max(res.stats.Commits, 1)))
			}
		}
		if p, ok := r.sim(l.lay, l.prefix+"sim"); ok {
			r.put(l.prefix+"sim16_speedup", p.speedup())
		}
	}
	for _, proto := range []string{"norec", "tl2-eager"} {
		if res, ok := short(layerCore, r.o.workers, proto, proto+" slice"); ok {
			r.put("stm.proto_"+proto+"_tx_per_s", res.txPerS)
		}
	}
	if res, ok := short(layerCore, 1, "", "1-worker slice"); ok {
		r.put("driver.w1_tx_per_s", res.txPerS)
		if mainRate > 0 {
			r.put("driver.scaling", mainRate/(float64(r.o.workers)*res.txPerS))
		}
	}
	if res, ok := short(layerNoop, r.o.workers, "", "no-op slice"); ok {
		r.put("driver.allocs_per_tx", res.allocsPerTx)
	}
}

// hostFacts head every report so drift is read before deltas.
type hostFacts struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	CalibNs    float64 `json:"host_calib_ns"`
}

// commitID reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func commitID() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}

func gatherHostFacts(o options) hostFacts {
	return hostFacts{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: o.workers,
		GoVersion: runtime.Version(), Seed: o.seed, Seconds: o.seconds, Commit: commitID(), CalibNs: float64(calibrate())}
}

// report is what -out writes and -compare reads.
type report struct {
	Host      hostFacts        `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

func (h hostFacts) print(w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d W=%d %s seed=%d seconds=%g commit=%s host.calib_ns=%.0f\n",
		h.NProc, h.GoMaxProcs, h.Workers, h.GoVersion, h.Seed, h.Seconds, h.Commit, h.CalibNs)
}

// printMetrics prints one table, a sub-heading per source.
func printMetrics(w io.Writer, title string, list []metricValue) {
	fmt.Fprintf(w, "  %-36s %-7s %-7s %14s %14s %14s %3s %6s\n", title, "unit", "better", "median", "min", "max", "n", "bound")
	source := ""
	for _, m := range list {
		if m.N == 0 {
			continue // the workload does not exercise it
		}
		if m.Source != source {
			source = m.Source
			fmt.Fprintf(w, "   from %s\n", source)
		}
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		fmt.Fprintf(w, "    %-34s %-7s %-7s %14.6g %14.6g %14.6g %3d %6s\n", m.Name, m.Unit, m.Better, m.Median, m.Min, m.Max, m.N, bound)
	}
}

func (rep workloadReport) print(w io.Writer) {
	fmt.Fprintf(w, "\nworkload %s — %s\n", rep.Workload, rep.Why)
	if len(rep.EndToEnd) > 0 {
		printMetrics(w, "end to end", rep.EndToEnd)
	}
	if len(rep.PerLayer) > 0 {
		printMetrics(w, "per layer", rep.PerLayer)
	}
	if rep.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", rep.TraceFile)
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d wall=%.1fs\n", rep.Correct, rep.Attempted, rep.Failed, rep.WallS)
}

// resultLine is the one-line JSON result: every metric of the run by
// name with its median, a metric the workload does not exercise as 0.
func (rep workloadReport) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range slices.Concat(rep.EndToEnd, rep.PerLayer) {
		metrics[m.Name] = value{m.Median, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, metrics})
	if err != nil {
		panic(err) // a NaN metric is a bug in the driver
	}
	return string(line)
}
