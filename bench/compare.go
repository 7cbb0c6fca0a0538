package main

// -compare: two -out reports side by side, one row per workload and
// bounded metric (the end-to-end ones, and the wall-clock driver.*
// metrics with their advisory bound), host facts first so drift is read
// before deltas.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// spread is the interquartile range of a metric's values in one report,
// as a share of their median.
func (m metricValue) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Median
}

// verdict judges new against old for one metric. A metric whose spread in
// either report exceeds its bound, and whose two interquartile ranges
// interleave, is unresolved: the runs cannot tell a change of that size
// from noise. Otherwise the medians decide, against the bound.
func verdict(old, cur metricValue) string {
	if old.N == 0 || cur.N == 0 {
		return "missing"
	}
	interleave := old.Q1 <= cur.Q3 && cur.Q1 <= old.Q3
	if interleave && max(old.spread(), cur.spread()) > old.Bound {
		return "unresolved"
	}
	switch w := worse(old.Better, old.Median, cur.Median); {
	case w > old.Bound:
		return "worse"
	case w < -old.Bound:
		return "better"
	}
	return "within"
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old %s\n  ", oldPath)
	old.Host.print(w)
	fmt.Fprintf(w, "new %s\n  ", newPath)
	cur.Host.print(w)
	if old.Host.CalibNs > 0 {
		fmt.Fprintf(w, "host.calib_ns new/old = %.3f (a ratio far from 1 is host drift: wall-clock rows below move with it)\n",
			cur.Host.CalibNs/old.Host.CalibNs)
	}
	fmt.Fprintf(w, "\n%-15s %-21s %-6s %13s %8s %13s %8s %8s %6s  %s\n",
		"workload", "metric", "better", "old median", "spread", "new median", "spread", "change", "bound", "verdict")
	for _, ow := range old.Workloads {
		var nw *workloadReport
		for i := range cur.Workloads {
			if cur.Workloads[i].Workload == ow.Workload {
				nw = &cur.Workloads[i]
			}
		}
		if nw == nil {
			fmt.Fprintf(w, "%-15s missing from %s\n", ow.Workload, newPath)
			continue
		}
		curMetrics := slices.Concat(nw.EndToEnd, nw.PerLayer)
		for _, om := range slices.Concat(ow.EndToEnd, ow.PerLayer) {
			if om.Bound == 0 {
				continue
			}
			var nm metricValue
			for _, m := range curMetrics {
				if m.Name == om.Name {
					nm = m
				}
			}
			change := 0.0
			if om.Median != 0 {
				change = (nm.Median - om.Median) / om.Median
			}
			fmt.Fprintf(w, "%-15s %-21s %-6s %13.6g %7.1f%% %13.6g %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				ow.Workload, om.Name, om.Better, om.Median, om.spread()*100, nm.Median, nm.spread()*100,
				change*100, om.Bound*100, verdict(om, nm))
		}
	}
	return nil
}
