// Command bench is the repository's benchmark: it builds ./cmd/ncadmitd,
// spawns it on a loopback port, drives it over keep-alive HTTP/1.1 and prints
// every metric by name and unit, checking the daemon's answers as it goes.
// README.md in this directory defines the metrics and the run shape.
//
//	bash bench/run.sh                                  every workload, both runs
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is bench/out/result.json: the run shape and every run made.
type report struct {
	Commit    string       `json:"commit"`
	GoVersion string       `json:"go_version"`
	NProc     int          `json:"nproc"`
	P         int          `json:"daemon_gomaxprocs"`
	C         int          `json:"driver_connections"`
	Pinned    bool         `json:"pinned"`
	Transport string       `json:"transport"`
	Seed      uint64       `json:"seed"`
	Seconds   float64      `json:"seconds"`
	BuildS    float64      `json:"build_s"`
	Runs      []*runResult `json:"runs"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload and print its result as one JSON line (the BENCHMARK.json contract)")
		seed         = flag.Uint64("seed", 1, "workload seed; the daemon only ever sees the generated request bodies")
		seconds      = flag.Float64("seconds", 22, "measured seconds of an untraced run (open-loop plus closed-loop stage)")
		trace        = flag.Int("trace", 0, "with -workload: 0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		compare      = flag.Bool("compare", false, "compare two result.json files (old new): print every end-to-end metric with its delta and bound, exit 1 on a breach")
		smoke        = flag.Bool("smoke", false, "run every workload for about a second, to check the harness end to end")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare old.json new.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	e, err := newEnv()
	if err != nil {
		fatal(2, "%v", err)
	}
	if err := e.build(); err != nil {
		fatal(2, "%v", err)
	}
	// Pin after the build, which should keep every CPU.
	if e.pin, err = pinDriver(); err != nil {
		fatal(2, "%v", err)
	}
	if *smoke {
		e.shape = smokeShape
		*seconds = 0.6
	}

	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(2, "bench: unknown workload %q", *workloadName)
		}
		res, err := runOne(e, w, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(1, "%v", err)
		}
		printRun(os.Stderr, res)
		if res.Invalid != "" {
			fatal(3, "bench: run invalid, not reported: %s", res.Invalid)
		}
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		metrics := map[string]metric{}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok {
				fatal(1, "bench: %s run of %s did not produce %s", map[bool]string{false: "untraced", true: "traced"}[res.Traced], w.name, d.Name)
			}
			metrics[d.Name] = m
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Println(string(line))
		if res.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	rep := &report{
		Commit: commitOf(e.root), GoVersion: runtime.Version(), NProc: e.nproc, P: e.p, C: e.c,
		Pinned: e.pin.on(), Transport: "loopback TCP, keep-alive HTTP/1.1", Seed: *seed, Seconds: *seconds, BuildS: e.buildS,
	}
	fmt.Printf("bench: commit %s, %s, nproc %d, daemon GOMAXPROCS %d, %d driver connections, seed %d, %.4gs measured per run; traffic crosses %s\n",
		rep.Commit, rep.GoVersion, rep.NProc, rep.P, rep.C, rep.Seed, rep.Seconds, rep.Transport)
	exit := 0
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runOne(e, w, *seed, *seconds, traced)
			if err != nil {
				fatal(1, "%v", err)
			}
			printRun(os.Stdout, res)
			rep.Runs = append(rep.Runs, res)
			if res.Failed > 0 || res.Invalid != "" {
				exit = 1
			}
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		fatal(1, "%v", err)
	}
	out := filepath.Join(e.outDir, "result.json")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println("bench: wrote", out)
	os.Exit(exit)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func runOne(e *env, w *workload, seed uint64, seconds float64, traced bool) (*runResult, error) {
	if e.shape.preloadDiv > 1 {
		small := *w
		small.preload = max(w.preload/e.shape.preloadDiv, 4*w.classes)
		small.batchSize = min(w.batchSize, small.preload)
		small.latWindow = 500 * time.Millisecond
		w = &small
	}
	if traced {
		return runTraced(e, w, seed)
	}
	return runUntraced(e, w, seed, seconds)
}

// commitOf names the checkout: the git commit when there is one.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printRun prints every metric of a run by name, with its unit.
func printRun(f *os.File, r *runResult) {
	kind := "untraced: end-to-end metrics"
	if r.Traced {
		kind = "traced: per-layer metrics"
	}
	fmt.Fprintf(f, "\n== %s (%s), seed %d: %d attempted, %d failed\n", r.Workload, kind, r.Seed, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "  %-38s %14.6g %s\n", n, m.Value, m.Unit)
	}
	notes := make([]string, 0, len(r.Notes))
	for n := range r.Notes {
		notes = append(notes, n)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(f, "  # %s: %s\n", n, r.Notes[n])
	}
	for _, m := range r.Failures {
		fmt.Fprintf(f, "  FAILED: %s\n", m)
	}
	if r.Invalid != "" {
		fmt.Fprintf(f, "  INVALID: %s\n", r.Invalid)
	}
}

// shape holds the parts of a run that --seconds does not stretch. The full
// shape is the benchmark; the smoke shape only proves the harness works.
type shape struct {
	// instances is how many fresh daemons share the measured seconds of a
	// churn run (and the least number of ramps of a bulk run).
	instances int
	warmup    time.Duration
	// replayFlows is the registry size revalidation is timed on: one DES
	// replay per flow makes the workloads' own registries too slow.
	replayFlows   int
	replayRepeats int
	serialBudget  time.Duration
	tracedStage   time.Duration
	probeBudget   time.Duration // per timed family of layer probes
	preloadDiv    int
	// judged runs are declared invalid when the driver measured itself.
	judged bool
}

var fullShape = shape{
	instances: 3, warmup: 500 * time.Millisecond, replayFlows: 400, replayRepeats: 5,
	serialBudget: 2500 * time.Millisecond, tracedStage: 2 * time.Second,
	probeBudget: 1500 * time.Millisecond, preloadDiv: 1, judged: true,
}

var smokeShape = shape{
	instances: 1, warmup: 100 * time.Millisecond, replayFlows: 40, replayRepeats: 1,
	serialBudget: 200 * time.Millisecond, tracedStage: 200 * time.Millisecond,
	probeBudget: 50 * time.Millisecond, preloadDiv: 25,
}
