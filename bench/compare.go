package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// find returns the run of a workload with the given tracing, or nil.
func (r *report) find(workload string, traced bool) *runResult {
	for _, run := range r.Runs {
		if run.Workload == workload && run.Traced == traced {
			return run
		}
	}
	return nil
}

// worsening returns by how large a share of old the metric got worse
// (negative when it improved).
func worsening(d metricDef, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// runCompare prints, per workload and end-to-end metric, both values, the
// change and the bound, then the layer metrics as information only. It
// returns the exit code: 1 when any bound is breached, a run failed
// operations, or a run is missing.
func runCompare(oldPath, newPath string, w io.Writer) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cur, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(w, "old: %s commit %s seed %d   new: %s commit %s seed %d\n", oldPath, old.Commit, old.Seed, newPath, cur.Commit, cur.Seed)
	breaches := 0
	for _, wl := range workloads {
		a, b := old.find(wl.name, false), cur.find(wl.name, false)
		fmt.Fprintf(w, "\n%s\n", wl.name)
		if a == nil || b == nil {
			fmt.Fprintf(w, "  BREACH: untraced run missing from one side\n")
			breaches++
			continue
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(w, "  BREACH: failed operations: old %d, new %d\n", a.Failed, b.Failed)
			breaches++
		}
		for _, d := range endToEnd {
			ov, nv := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			worse := worsening(d, ov, nv)
			verdict := "ok"
			if worse > d.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "  %-20s %12.5g -> %12.5g %-8s worse by %+7.2f%% (bound %.0f%%, %s is better)  %s\n",
				d.Name, ov, nv, d.Unit, worse*100, d.Bound*100, d.Better, verdict)
		}
		ta, tb := old.find(wl.name, true), cur.find(wl.name, true)
		if ta == nil || tb == nil {
			continue
		}
		fmt.Fprintf(w, "  layers (information only)\n")
		layer := ""
		for _, d := range perLayer {
			if d.Layer != layer {
				layer = d.Layer
				fmt.Fprintf(w, "   %s\n", layer)
			}
			ov, nv := ta.Metrics[d.Name].Value, tb.Metrics[d.Name].Value
			fmt.Fprintf(w, "    %-38s %12.5g -> %12.5g %-6s %+7.2f%%\n", d.Name, ov, nv, d.Unit, worsening(d, ov, nv)*100)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "\n%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintf(w, "\nevery end-to-end metric within its bound\n")
	return 0
}
