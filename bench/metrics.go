package main

// The metric registry: every name the benchmark prints, with its unit,
// direction, regression bound and source. BENCHMARK.json at the repo
// root lists the same names (a test keeps the two in step), and later
// performance claims cite a metric and a workload from here.

import (
	"math"
	"slices"
)

// metricDef describes one metric.
type metricDef struct {
	Name string
	Unit string
	// Better is "higher" or "lower".
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it is a regression. Per-layer metrics
	// have none in BENCHMARK.json; the few that carry one here are
	// judged by -compare only.
	Bound float64
	// Source is the phase the number comes from; the report and the
	// README group by it, and the README defines each metric.
	Source string
}

// endToEnd are the bounded metrics: the costs a user of the collections
// pays that this benchmark can measure to well inside their bounds on a
// shared 2-vCPU host. The wall-clock metrics are not among them (see
// driver.tx_per_s below).
var endToEnd = []metricDef{
	{"allocs_per_tx", "count", "lower", 0.02, "slices"},
	{"bytes_per_tx", "B", "lower", 0.02, "slices"},
	{"sim16_speedup", "ratio", "higher", 0.10, "sim"},
	{"setup_s", "s", "lower", 0.25, "setup"},
}

// perLayer are the single-layer metrics, in report order.
var perLayer = slices.Concat(
	// The untraced slices. First the wall-clock metrics: on the
	// reference host ten runs of identical code spread by up to 29 % of
	// their median, so by the rule of the issue that defined them they
	// are not end-to-end metrics with a wider bound but driver.* metrics
	// with none. Their bound here is advisory: -compare judges by it.
	// Then the counters of stm.Stats per completed transaction, and the
	// state's live heap.
	[]metricDef{
		{"driver.tx_per_s", "1/s", "higher", 0.10, "slices"},
		{"driver.tx_p50_us", "us", "lower", 0.10, "slices"},
		{"driver.tx_p99_us", "us", "lower", 0.10, "slices"},
		{"driver.cpu_us_per_tx", "us", "lower", 0.10, "slices"},
		{"stm.aborts_per_tx", "ratio", "lower", 0, "slices"},
		{"stm.violations_per_tx", "ratio", "lower", 0, "slices"},
		{"stm.user_aborts_per_tx", "ratio", "lower", 0, "slices"},
		{"stm.open_commits_per_tx", "ratio", "lower", 0, "slices"},
		{"stm.open_retries_per_tx", "ratio", "lower", 0, "slices"},
		{"stm.handler_runs_per_tx", "ratio", "lower", 0, "slices"},
		{"stm.snapshot_share", "ratio", "higher", 0, "slices"},
		{"stm.snapshot_fallbacks_per_tx", "ratio", "lower", 0, "slices"},
		{"driver.attempts_per_tx", "ratio", "lower", 0, "slices"},
		{"semlock.viol_key_per_tx", "ratio", "lower", 0, "slices"},
		{"semlock.viol_size_per_tx", "ratio", "lower", 0, "slices"},
		{"semlock.viol_range_per_tx", "ratio", "lower", 0, "slices"},
		{"semlock.viol_endpoint_per_tx", "ratio", "lower", 0, "slices"},
		{"core.heap_live_kb", "KiB", "lower", 0, "slices"},
		{"driver.failed_share", "ratio", "lower", 0, "slices"},
	},
	// The simulator pass.
	[]metricDef{
		{"sim.makespan1", "cycles", "lower", 0, "sim"},
		{"sim.makespan16", "cycles", "lower", 0, "sim"},
		{"sim.aborts16", "count", "lower", 0, "sim"},
		{"sim.violations16", "count", "lower", 0, "sim"},
		{"sim.lost_per_tx16", "ratio", "lower", 0, "sim"},
		{"sim.wall_s", "s", "lower", 0, "sim"},
		{"sim.repeat_exact", "bool", "higher", 0, "sim"},
	},
	// The traced pass.
	[]metricDef{
		{"stm.begin_us", "us", "lower", 0, "trace"},
		{"stm.commit_us", "us", "lower", 0, "trace"},
		{"stm.wasted_share", "ratio", "lower", 0, "trace"},
		{"core.self_share", "ratio", "lower", 0, "trace"},
		{"driver.think_share", "ratio", "higher", 0, "trace"},
	},
	callClassDefs(),
	[]metricDef{
		{"driver.trace_overhead_share", "ratio", "lower", 0, "trace"},
	},
	// The same workload on another layer.
	[]metricDef{
		{"stmcol.tx_per_s", "1/s", "higher", 0, "layers"},
		{"stmcol.lost_per_tx", "ratio", "lower", 0, "layers"},
		{"stmcol.sim16_speedup", "ratio", "higher", 0, "layers"},
		{"concurrent.tx_per_s", "1/s", "higher", 0, "layers"},
		{"concurrent.sim16_speedup", "ratio", "higher", 0, "layers"},
		{"core.stripe_alt_tx_per_s", "1/s", "higher", 0, "layers"},
		{"core.stripe_alt_sim16_speedup", "ratio", "higher", 0, "layers"},
		{"stm.proto_norec_tx_per_s", "1/s", "higher", 0, "layers"},
		{"stm.proto_tl2-eager_tx_per_s", "1/s", "higher", 0, "layers"},
		{"driver.w1_tx_per_s", "1/s", "higher", 0, "layers"},
		{"driver.scaling", "ratio", "higher", 0, "layers"},
		{"driver.allocs_per_tx", "count", "lower", 0, "layers"},
	},
	ladderDefs(),
)

// callClassDefs names the median duration of one collection call per
// class of the traced slice: core.get_us ... core.counter_us.
func callClassDefs() []metricDef {
	var out []metricDef
	for k := spanGet; k < numSpanKinds; k++ {
		out = append(out, metricDef{Name: "core." + spanNames[k] + "_us", Unit: "us", Better: "lower", Source: "trace"})
	}
	return out
}

// sample is the measured values of one metric in one run.
type sample []float64

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentileSorted(s, 50)
}

// percentileSorted interpolates linearly between the closest ranks of an
// ascending slice; p is in [0, 100].
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// worse reports by what share of base the value cur is worse than base,
// negative when it is better.
func worse(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}
