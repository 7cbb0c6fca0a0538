// Command bench is the repository's benchmark of record: four
// long-transaction workloads over internal/core's collections, each run
// closed-loop on real goroutines and on the 16-vCPU simulator, with
// end-to-end metrics and — from a traced pass, the same workload on the
// other layers, and a ladder of single-layer rungs — per-layer metrics
// beside them. BENCHMARK.json at the repository root names the command,
// the workloads and every metric; README.md in this directory explains
// them.
//
//	go run ./bench -seed 1                       # every workload, every metric
//	go run ./bench -seed 1 -workload map-long    # one workload
//	go run ./bench --workload map-long --seed 1 --seconds 10 --trace 0
//	go run ./bench -smoke                        # all phases, tiny counts
//	go run ./bench -compare old.json new.json    # two -out reports
//
// The last line of a workload's output is one JSON object with its
// result. The exit status is non-zero when an invariant check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "seconds one workload measures")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		smoke    = flag.Bool("smoke", false, "tiny counts: every phase in a few seconds, numbers meaningless")
		out      = flag.String("out", "", "also write the full report as JSON to this `file`")
		traceDir = flag.String("trace-dir", filepath.Join("bench", "out"), "`directory` the traced pass writes its Chrome trace into")
		compare  = flag.Bool("compare", false, "compare two -out reports given as arguments: old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "-compare takes two report files: old.json new.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(1, "%v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments %q", flag.Args())
	}
	if *trace < -1 || *trace > 1 {
		fatal(2, "-trace is 0 or 1")
	}
	if *seconds <= 0 {
		fatal(2, "-seconds must be positive")
	}
	defs := workloads
	if *workload != "" {
		d, ok := findWorkload(*workload)
		if !ok {
			fatal(2, "unknown workload %q", *workload)
		}
		defs = []workloadDef{d}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, workers: workerCount(), traceDir: *traceDir}
	if o.smoke && !isSet("seconds") {
		o.seconds = 0.5
	}

	rep := report{Host: gatherHostFacts(o)}
	rep.Host.print(os.Stdout)
	correct := true
	for _, d := range defs {
		wr := runWorkload(d, o)
		wr.print(os.Stdout)
		fmt.Println(wr.resultLine())
		correct = correct && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fatal(1, "write report: %v", err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func isSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
