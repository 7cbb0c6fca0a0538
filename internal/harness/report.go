package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"

	"tcc/internal/obs"
	"tcc/internal/stm"
)

// Report is the machine-readable form of a tccbench run, written by the
// -stats-json flag. It carries a free-form note plus host
// identification, so runs can be compared across revisions and machines.
type Report struct {
	Note    string         `json:"note,omitempty"`
	Goos    string         `json:"goos,omitempty"`
	Goarch  string         `json:"goarch,omitempty"`
	Figures []FigureReport `json:"figures"`
}

// FigureReport is one figure's sweep.
type FigureReport struct {
	Title  string         `json:"title"`
	CPUs   []int          `json:"cpus"`
	Series []SeriesReport `json:"series"`
}

// SeriesReport is one configuration's line, one entry per CPU count.
type SeriesReport struct {
	Name string      `json:"name"`
	Runs []RunReport `json:"runs"`
}

// RunReport is a single measured run.
type RunReport struct {
	CPUs    int                `json:"cpus"`
	Speedup float64            `json:"speedup"`
	Stats   stm.Stats          `json:"stats"`
	Profile *obs.ProfileReport `json:"profile,omitempty"`
}

// BuildReport converts measured figures into the export shape.
func BuildReport(note string, figs ...Figure) Report {
	rep := Report{Note: note, Goos: runtime.GOOS, Goarch: runtime.GOARCH}
	for _, f := range figs {
		fr := FigureReport{Title: f.Title, CPUs: f.CPUs}
		for _, s := range f.Series {
			sr := SeriesReport{Name: s.Name}
			for _, n := range f.CPUs {
				rr := RunReport{CPUs: n, Speedup: s.Speedup[n], Stats: s.Stats[n]}
				if s.Profiles != nil {
					rr.Profile = s.Profiles[n]
				}
				sr.Runs = append(sr.Runs, rr)
			}
			fr.Series = append(fr.Series, sr)
		}
		rep.Figures = append(rep.Figures, fr)
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ProfileString renders each profiled run's conflict heatmap — the
// TAPE-style per-variable attribution of §6.3, one table per (series,
// CPU count) pair. Empty when the figure was run without profiling.
func (f Figure) ProfileString(top int) string {
	var b strings.Builder
	for _, s := range f.Series {
		if s.Profiles == nil {
			continue
		}
		for _, n := range f.CPUs {
			p := s.Profiles[n]
			if p == nil || p.Aborts+p.Violations == 0 {
				continue
			}
			if b.Len() == 0 {
				fmt.Fprintf(&b, "%s — conflict profiles\n", f.Title)
			}
			fmt.Fprintf(&b, "  %s @ %d CPUs:\n", s.Name, n)
			for _, line := range strings.Split(strings.TrimRight(p.Format(top), "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}
