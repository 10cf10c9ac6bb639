// Package experiments regenerates every table and figure of the paper's
// evaluation: Figure 1 (curve illustration), Figure 4 and Table 1 (BLAST),
// Table 2, Figure 10 and Table 3 (bump in the wire), the §4.2/§5 delay and
// backlog corroborations, and the extension studies (buffer planning,
// overload, bump-vs-traditional). Each experiment writes a human-readable
// report to a writer and, when an output directory is configured, CSV
// series for the figures.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"streamcalc/internal/aesstream"
	"streamcalc/internal/apps/bitwmodel"
	"streamcalc/internal/apps/blastmodel"
	"streamcalc/internal/blast"
	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/gen"
	"streamcalc/internal/lz4"
	"streamcalc/internal/obs"
	"streamcalc/internal/pool"
	"streamcalc/internal/queueing"
	"streamcalc/internal/stats"
	"streamcalc/internal/units"
)

// Options configure a run.
type Options struct {
	// OutDir, when non-empty, receives CSV files for the figures.
	OutDir string
	// Seed drives the simulations (default blastmodel.SimSeed).
	Seed uint64
	// Quick shrinks workload sizes for fast smoke runs (used by tests).
	Quick bool
	// Workers bounds intra-experiment parallelism (sweep points, replicated
	// sims); < 1 means GOMAXPROCS, 1 disables. Results are deterministic at
	// every worker count.
	Workers int
	// Metrics, when non-nil, receives worker-pool telemetry from the driver
	// and the sweep helpers.
	Metrics *obs.Registry
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return blastmodel.SimSeed
	}
	return o.Seed
}

// Measured marks a transcript line whose text after the mark is a
// wall-clock measurement of a software kernel (the blaststages and table2
// rates), which differs from run to run; everything else is a function of
// the code and the seed.
const Measured = "[measured]"

// Experiment is a named, runnable reproduction target.
type Experiment struct {
	Name  string
	Title string
	Run   func(w io.Writer, o Options) error
	// Serial marks experiments that measure wall-clock throughput of real
	// software kernels (LZ4, AES, BLASTN): running them concurrently with
	// anything else would contend for CPU and skew the measured rates, so
	// the parallel driver runs them alone after the concurrent batch.
	Serial bool
}

// All returns the registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{Name: "fig1", Title: "Figure 1: arrival/service curves, backlog, delay, output bound", Run: Fig1},
		{Name: "table1", Title: "Table 1: BLAST throughput (NC bounds vs sim vs queueing)", Run: Table1},
		{Name: "fig4", Title: "Figure 4: BLAST model curves and simulated output", Run: Fig4},
		{Name: "blastbounds", Title: "§4.2: BLAST delay and backlog corroboration", Run: BlastBounds},
		{Name: "blaststages", Title: "Figure 2/3: software BLASTN per-stage measurements", Run: BlastStages, Serial: true},
		{Name: "table2", Title: "Table 2: bump-in-the-wire per-stage throughputs (software kernels)", Run: Table2, Serial: true},
		{Name: "table3", Title: "Table 3: bump-in-the-wire throughput (NC bounds vs sim vs queueing)", Run: Table3},
		{Name: "fig10", Title: "Figure 10: bump-in-the-wire model curves and simulated output", Run: Fig10},
		{Name: "bitwbounds", Title: "§5: bump-in-the-wire delay and backlog corroboration", Run: BitwBounds},
		{Name: "bitwcompare", Title: "Figures 5-8: bump-in-the-wire vs traditional deployment", Run: BitwCompare},
		{Name: "buffers", Title: "Extension: per-node buffer plans from backlog attribution", Run: Buffers},
		{Name: "overload", Title: "Extension: R_alpha > R_beta transient analysis", Run: Overload},
		{Name: "multiflow", Title: "Extension: cross traffic (residual service) and shaped arrivals", Run: Multiflow},
		{Name: "sweepjob", Title: "Ablation: GPU job-aggregation size vs latency/backlog (BLAST)", Run: SweepJobSize},
		{Name: "sweepchunk", Title: "Ablation: transfer chunk size vs delay estimate and simulation (BITW)", Run: SweepChunk},
		{Name: "mercator", Title: "§4.1: Mercator-style occupancy scheduling of the BLASTN dataflow", Run: Mercator},
		{Name: "crossval", Title: "Future work: bound soundness/tightness over random pipelines", Run: CrossVal},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment sequentially in presentation order.
func RunAll(w io.Writer, o Options) error {
	return RunParallel(w, o, 1)
}

// RunParallel executes the registry with up to `workers` experiments in
// flight (< 1 means GOMAXPROCS; 1 is the sequential RunAll). Every
// experiment writes into a private buffer, and the buffers are flushed in
// presentation order, so the report is byte-identical to a sequential run
// for every deterministic experiment. Entries marked Serial (wall-clock
// kernel measurements) run alone after the concurrent batch — their
// measured rates must not contend with sibling experiments for CPU. On
// failure the earliest (presentation-order) failing experiment's error is
// returned, along with the reports of everything before it.
func RunParallel(w io.Writer, o Options, workers int) error {
	return runEntries(w, o, workers, All())
}

// runEntries is the RunParallel engine over an explicit entry list.
func runEntries(w io.Writer, o Options, workers int, all []Experiment) error {
	bufs := make([]bytes.Buffer, len(all))
	errs := make([]error, len(all))
	run := func(i int) {
		e := all[i]
		fmt.Fprintf(&bufs[i], "==== %s: %s ====\n", e.Name, e.Title)
		if err := e.Run(&bufs[i], o); err != nil {
			errs[i] = fmt.Errorf("%s: %w", e.Name, err)
			return
		}
		fmt.Fprintln(&bufs[i])
	}

	var concurrent []int
	for i, e := range all {
		if workers != 1 && e.Serial {
			continue
		}
		concurrent = append(concurrent, i)
	}
	pm := pool.NewMetrics(o.Metrics, "experiments")
	// Experiment errors are recorded per slot, not returned through the
	// pool: the driver reports in presentation order below.
	_ = pool.ForEach(context.Background(), workers, len(concurrent), pm, func(k int) error {
		run(concurrent[k])
		return nil
	})
	if workers != 1 {
		for i, e := range all {
			if e.Serial {
				run(i)
			}
		}
	}

	for i := range all {
		if errs[i] != nil {
			// Flush everything completed before the failure, then stop —
			// matching the sequential driver's partial report.
			return errs[i]
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV dumps parallel series under OutDir (no-op with empty OutDir).
func writeCSV(o Options, name string, header []string, rows [][]float64) error {
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.OutDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(f, ",")
		}
		fmt.Fprint(f, h)
	}
	fmt.Fprintln(f)
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				fmt.Fprint(f, ",")
			}
			fmt.Fprintf(f, "%g", v)
		}
		fmt.Fprintln(f)
	}
	return nil
}

// curveRows samples curves on a shared horizon for CSV export.
func curveRows(horizon float64, n int, cs ...curve.Curve) [][]float64 {
	rows := make([][]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		t := horizon * float64(i) / float64(n)
		row := []float64{t}
		for _, c := range cs {
			row = append(row, c.Value(t))
		}
		rows = append(rows, row)
	}
	return rows
}

func mibs(r units.Rate) float64  { return float64(r) / float64(units.MiBPerSec) }
func mib(b units.Bytes) float64  { return float64(b) / float64(units.MiB) }
func kib(b units.Bytes) float64  { return float64(b) / float64(units.KiB) }
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// Fig1 reproduces the illustrative Figure 1: a leaky-bucket arrival curve,
// a rate-latency service curve and a maximum service curve, with the
// derived backlog, virtual delay, and output flow bound.
func Fig1(w io.Writer, o Options) error {
	alpha := curve.Affine(1, 4)      // R_alpha=1, b=4
	beta := curve.RateLatency(2, 3)  // R_beta=2, T=3
	gamma := curve.RateLatency(3, 1) // best case
	d := curve.HDev(alpha, beta)
	x := curve.VDev(alpha, beta)
	conv := curve.Convolve(alpha, gamma)
	out, ok := curve.Deconvolve(conv, beta)
	if !ok {
		return fmt.Errorf("unexpected unbounded deconvolution")
	}
	out = out.ZeroAtOrigin()
	fmt.Fprintf(w, "alpha  = leaky bucket R=1, b=4\n")
	fmt.Fprintf(w, "beta   = rate-latency R=2, T=3\n")
	fmt.Fprintf(w, "gamma  = rate-latency R=3, T=1\n")
	fmt.Fprintf(w, "virtual delay d = %.3f (closed form T + b/R = %.3f)\n", d, 3+4.0/2.0)
	fmt.Fprintf(w, "backlog x       = %.3f (closed form b + R_a*T = %.3f)\n", x, 4+1.0*3)
	fmt.Fprintf(w, "output bound alpha* : burst %.3f, rate %.3f\n", out.Burst(), out.UltimateSlope())
	return writeCSV(o, "fig1.csv",
		[]string{"t", "alpha", "beta", "gamma", "alpha_star"},
		curveRows(12, 240, alpha, beta, gamma, out))
}

// throughputTable prints one Table 1/3-style comparison.
func throughputTable(w io.Writer, rows [][2]string) {
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-*s  %s\n", width, r[0], r[1])
	}
}

// Table1 reproduces the BLAST throughput table.
func Table1(w io.Writer, o Options) error {
	a, err := blastmodel.Analyze()
	if err != nil {
		return err
	}
	qt, err := queueing.Analyze(blastmodel.QueueingNetwork())
	if err != nil {
		return err
	}
	total := 512 * units.MiB
	reps := 3
	if o.Quick {
		total = 96 * units.MiB
		reps = 1
	}
	var tp stats.Summary
	for i := 0; i < reps; i++ {
		simRes, err := blastmodel.SimulateThroughput(total, o.seed()+uint64(i))
		if err != nil {
			return err
		}
		tp.Add(float64(simRes.Throughput))
	}
	simCell := fmt.Sprintf("%.0f MiB/s (353)", tp.Mean()/float64(units.MiBPerSec))
	if reps > 1 {
		simCell = fmt.Sprintf("%.0f ± %.1f MiB/s over %d seeds (353)",
			tp.Mean()/float64(units.MiBPerSec), tp.CI95()/float64(units.MiBPerSec), reps)
	}
	throughputTable(w, [][2]string{
		{"Source", "Value (paper)"},
		{"Network calculus upper bound", fmt.Sprintf("%.0f MiB/s (704)", mibs(a.ThroughputUpper))},
		{"Network calculus lower bound", fmt.Sprintf("%.0f MiB/s (350)", mibs(a.ThroughputLower))},
		{"Discrete-event simulation model", simCell},
		{"Queueing theory prediction", fmt.Sprintf("%.0f MiB/s (500)", mibs(qt.Roofline))},
		{"Measured throughput [12]", "n/a here (355 in paper)"},
	})
	return nil
}

// Fig4 exports the BLAST model curves plus the simulated cumulative-output
// stairstep that must lie between the bounds.
func Fig4(w io.Writer, o Options) error {
	a, err := blastmodel.Analyze()
	if err != nil {
		return err
	}
	total := 96 * units.MiB
	if o.Quick {
		total = 48 * units.MiB
	}
	simRes, err := blastmodel.SimulateThroughput(total, o.seed())
	if err != nil {
		return err
	}
	horizon := 0.120 // 120 ms
	rows := curveRows(horizon, 480, a.AlphaPrime, a.Beta, a.OutputBound)
	fmt.Fprintf(w, "curves sampled over %.0f ms; sim trajectory has %d points\n",
		horizon*1e3, len(simRes.Output))
	if err := writeCSV(o, "fig4_curves.csv",
		[]string{"t_s", "alpha_prime_B", "beta_B", "alpha_star_B"}, rows); err != nil {
		return err
	}
	var simRows [][]float64
	for _, p := range simRes.Output {
		simRows = append(simRows, []float64{p.T.Seconds(), float64(p.Cum)})
	}
	if err := writeCSV(o, "fig4_sim.csv", []string{"t_s", "cum_out_B"}, simRows); err != nil {
		return err
	}
	// Shape property: at every simulated departure the cumulative output
	// lies at or below the arrival envelope.
	violations := 0
	for _, p := range simRes.Output {
		if float64(p.Cum) > a.AlphaPrime.Value(p.T.Seconds())+1 {
			violations++
		}
	}
	fmt.Fprintf(w, "sim output vs alpha' envelope violations: %d\n", violations)
	return nil
}

// BlastBounds reports the §4.2 delay/backlog corroboration.
func BlastBounds(w io.Writer, o Options) error {
	a, err := blastmodel.Analyze()
	if err != nil {
		return err
	}
	simRes, err := blastmodel.SimulateJobTraversal(o.seed())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model delay estimate  : %.1f ms (paper 46.9)\n", ms(a.DelayEstimate))
	fmt.Fprintf(w, "sim delay min/max     : %.1f / %.1f ms (paper 40.7 / 46.4)\n",
		ms(simRes.DelayMin), ms(simRes.DelayMax))
	fmt.Fprintf(w, "model backlog estimate: %.1f MiB (paper 20.6 MiB)\n", mib(a.BacklogEstimate))
	fmt.Fprintf(w, "sim backlog watermark : %.1f MiB (paper reports 20.1 KiB; see EXPERIMENTS.md erratum)\n",
		mib(simRes.MaxBacklog))
	fmt.Fprintf(w, "regime: R_alpha (%.0f) > R_beta (%.0f): figures are the §3 transient estimates\n",
		mibs(blastmodel.ArrivalRate), mibs(a.ThroughputLower))
	return nil
}

// BlastStages runs the real software BLASTN pipeline and reports isolated
// per-stage throughputs and job ratios — the Figure 2/3 parameterization
// path.
func BlastStages(w io.Writer, o Options) error {
	dbLen := 1 << 22
	repeat := 3
	if o.Quick {
		dbLen = 1 << 18
		repeat = 1
	}
	query := gen.DNA(256, o.seed())
	db, _ := gen.DNAWithPlants(dbLen, query, dbLen/8, o.seed()+1)
	ms, err := blast.MeasureStages(db, query, 30, repeat)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-14s %14s %14s %10s\n", "stage", "in", "out", "job ratio")
	for _, m := range ms {
		fmt.Fprintf(w, "  %-14s %14s %14s %10.2f   %s %s\n",
			m.Name, m.InBytes.String(), m.OutBytes.String(), m.JobRatio(), Measured, m.Rate.String())
	}
	res, err := blast.Run(db, query, 30)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  end-to-end: %d seed positions, %d matches, %d passed small ext, %d hits\n",
		res.Counts.SeedPositions, res.Counts.SeedMatches, res.Counts.SmallPassed, res.Counts.Hits)
	return nil
}

// Table2 measures our software LZ4 and AES kernels on corpora spanning the
// paper's observed compression ratios and prints them alongside the paper's
// Table 2 FPGA-kernel numbers.
func Table2(w io.Writer, o Options) error {
	size := 1 << 24
	if o.Quick {
		size = 1 << 20
	}
	corpora := map[string][]byte{
		"min": gen.Incompressible(size, o.seed()),
		"avg": gen.Text(size, 0.40, o.seed()+1),
		"max": gen.Text(size, 0.90, o.seed()+2),
	}
	type row struct {
		name string
		vals map[string]units.Rate
	}
	mkRow := func(name string) *row { return &row{name: name, vals: map[string]units.Rate{}} }
	compress, decompress := mkRow("Compress"), mkRow("Decompress")
	encrypt, decrypt := mkRow("Encrypt"), mkRow("Decrypt")
	ratios := map[string]float64{}

	key := make([]byte, aesstream.KeySize)
	for label, data := range corpora {
		start := time.Now()
		c := lz4.Compress(nil, data)
		compress.vals[label] = units.Bytes(len(data)).Over(time.Since(start))
		ratios[label] = float64(len(data)) / float64(len(c))

		start = time.Now()
		if _, err := lz4.Decompress(nil, c, len(data)); err != nil {
			return err
		}
		decompress.vals[label] = units.Bytes(len(data)).Over(time.Since(start))

		enc, err := aesstream.New(key, 1)
		if err != nil {
			return err
		}
		start = time.Now()
		ct := enc.Encrypt(c, 4096)
		encrypt.vals[label] = units.Bytes(len(c)).Over(time.Since(start))

		dec, _ := aesstream.New(key, 1)
		start = time.Now()
		if _, err := dec.Decrypt(ct); err != nil {
			return err
		}
		decrypt.vals[label] = units.Bytes(len(c)).Over(time.Since(start))
	}

	fmt.Fprintf(w, "  software-kernel measurements (paper Table 2 measured FPGA kernels):\n")
	fmt.Fprintf(w, "  %-12s %-10s %14s %14s %14s\n", "function", "", "min-corpus", "avg-corpus", "max-corpus")
	for _, r := range []*row{compress, encrypt, decrypt, decompress} {
		fmt.Fprintf(w, "  %-12s %s %14s %14s %14s\n", r.name, Measured,
			r.vals["min"].String(), r.vals["avg"].String(), r.vals["max"].String())
	}
	var labels []string
	for l := range ratios {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(w, "  LZ4 ratio on %s corpus: %.2fx\n", l, ratios[l])
	}
	fmt.Fprintf(w, "  paper ratios: 1.0 min / 2.2 avg / 5.3 max\n")
	fmt.Fprintf(w, "  paper rates : compress 1181/2662/6386, encrypt 56/68/75, network 10 GiB/s,\n")
	fmt.Fprintf(w, "                decrypt 77/90/113, decompress 1426/1495/1543, PCIe 11 GiB/s (MiB/s)\n")
	return nil
}

// Table3 reproduces the bump-in-the-wire throughput table.
func Table3(w io.Writer, o Options) error {
	a, err := bitwmodel.Analyze()
	if err != nil {
		return err
	}
	qt, err := queueing.Analyze(bitwmodel.QueueingNetwork())
	if err != nil {
		return err
	}
	total := 32 * units.MiB
	reps := 3
	if o.Quick {
		total = 8 * units.MiB
		reps = 1
	}
	var tp stats.Summary
	for i := 0; i < reps; i++ {
		simRes, err := bitwmodel.SimulateThroughput(total, o.seed()+uint64(i))
		if err != nil {
			return err
		}
		tp.Add(float64(simRes.Throughput))
	}
	simCell := fmt.Sprintf("%.0f MiB/s (61)", tp.Mean()/float64(units.MiBPerSec))
	if reps > 1 {
		simCell = fmt.Sprintf("%.1f ± %.2f MiB/s over %d seeds (61)",
			tp.Mean()/float64(units.MiBPerSec), tp.CI95()/float64(units.MiBPerSec), reps)
	}
	throughputTable(w, [][2]string{
		{"Source", "Value (paper)"},
		{"Network calculus upper bound", fmt.Sprintf("%.0f MiB/s (313)", mibs(a.ThroughputUpper))},
		{"Network calculus lower bound", fmt.Sprintf("%.0f MiB/s (59)", mibs(a.ThroughputLower))},
		{"Discrete-event simulation model", simCell},
		{"Queueing theory prediction", fmt.Sprintf("%.0f MiB/s (151)", mibs(qt.Roofline))},
	})
	return nil
}

// Fig10 exports the bump-in-the-wire curves and simulated output (the
// paper omits gamma from this plot; we export it anyway in its own column).
func Fig10(w io.Writer, o Options) error {
	a, err := bitwmodel.Analyze()
	if err != nil {
		return err
	}
	simRes, err := bitwmodel.SimulateThroughput(4*units.MiB, o.seed())
	if err != nil {
		return err
	}
	horizon := 100e-6
	rows := curveRows(horizon, 400, a.AlphaPrime, a.Beta, a.OutputBound, a.Gamma)
	fmt.Fprintf(w, "curves sampled over %.0f µs; sim trajectory has %d points\n",
		horizon*1e6, len(simRes.Output))
	if err := writeCSV(o, "fig10_curves.csv",
		[]string{"t_s", "alpha_prime_B", "beta_B", "alpha_star_B", "gamma_B"}, rows); err != nil {
		return err
	}
	var simRows [][]float64
	for _, p := range simRes.Output {
		simRows = append(simRows, []float64{p.T.Seconds(), float64(p.Cum)})
	}
	return writeCSV(o, "fig10_sim.csv", []string{"t_s", "cum_out_B"}, simRows)
}

// BitwBounds reports the §5 delay/backlog corroboration.
func BitwBounds(w io.Writer, o Options) error {
	a, err := bitwmodel.Analyze()
	if err != nil {
		return err
	}
	simRes, err := bitwmodel.SimulateJobTraversal(o.seed())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model delay estimate  : %.1f µs (paper 38)\n", us(a.DelayEstimate))
	fmt.Fprintf(w, "sim delay min/max     : %.1f / %.1f µs (paper 25.7 / 36.7)\n",
		us(simRes.DelayMin), us(simRes.DelayMax))
	fmt.Fprintf(w, "model backlog estimate: %.2f KiB (paper 3)\n", kib(a.BacklogEstimate))
	fmt.Fprintf(w, "sim backlog watermark : %.2f KiB (paper 2)\n", kib(simRes.MaxBacklog))
	return nil
}

// BitwCompare contrasts the bump-in-the-wire deployment with the
// traditional PCIe-attached one (Figures 5-8): same throughput, extra
// latency from the PCIe + host-staging hops.
func BitwCompare(w io.Writer, o Options) error {
	bump, err := bitwmodel.Analyze()
	if err != nil {
		return err
	}
	trad, err := core.Analyze(bitwmodel.TraditionalPipeline())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-28s %18s %18s\n", "", "bump-in-the-wire", "traditional")
	fmt.Fprintf(w, "  %-28s %18.0f %18.0f\n", "throughput lower (MiB/s)",
		mibs(bump.ThroughputLower), mibs(trad.ThroughputLower))
	fmt.Fprintf(w, "  %-28s %18.2f %18.2f\n", "delay estimate (µs)",
		us(bump.DelayEstimate), us(trad.DelayEstimate))
	fmt.Fprintf(w, "  %-28s %18.3f %18.3f\n", "cumulative latency (µs)",
		us(bump.TotalLatency), us(trad.TotalLatency))
	fmt.Fprintf(w, "  %-28s %18.2f %18.2f\n", "backlog estimate (KiB)",
		kib(bump.BacklogEstimate), kib(trad.BacklogEstimate))
	fmt.Fprintf(w, "  eliminating the PCIe return trip saves %.3f µs of pipeline latency\n",
		us(trad.TotalLatency-bump.TotalLatency))
	return nil
}

// Buffers prints the analytic per-node buffer plans for both case studies —
// the paper's "assist a developer in allocating buffers" use case.
func Buffers(w io.Writer, o Options) error {
	for _, app := range []struct {
		name string
		an   func() (*core.Analysis, error)
	}{
		{"BLAST", blastmodel.Analyze},
		{"bump-in-the-wire", bitwmodel.Analyze},
	} {
		a, err := app.an()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s per-node backlog attribution:\n", app.name)
		for _, rec := range a.BufferPlan() {
			if rec.Infinite {
				fmt.Fprintf(w, "    %-20s unbounded (downstream of overload point; size via overload analysis)\n", rec.Name)
			} else {
				fmt.Fprintf(w, "    %-20s %s\n", rec.Name, rec.Capacity.String())
			}
		}
	}
	return nil
}

// Multiflow exercises the multi-flow and back-pressure extensions on the
// bump-in-the-wire pipeline: a second tenant's traffic on the shared
// network link shrinks the residual service, and shaping the arrival down
// to the sustainable rate restores finite steady-state bounds.
func Multiflow(w io.Writer, o Options) error {
	base := bitwmodel.Pipeline()
	a0, err := core.Analyze(base)
	if err != nil {
		return err
	}

	// A second tenant sends 5 GiB/s through the same 10 GiB/s link.
	shared := base
	shared.Nodes = append([]core.Node(nil), base.Nodes...)
	for i := range shared.Nodes {
		if shared.Nodes[i].Name == "network" {
			shared.Nodes[i].CrossRate = 5 * units.GiBPerSec
			shared.Nodes[i].CrossBurst = 64 * units.KiB
		}
	}
	a1, err := core.Analyze(shared)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  network link shared with a 5 GiB/s tenant:\n")
	fmt.Fprintf(w, "    residual link rate: %.1f -> %.1f GiB/s\n",
		float64(a0.Nodes[2].Rate)/float64(units.GiBPerSec),
		float64(a1.Nodes[2].Rate)/float64(units.GiBPerSec))
	fmt.Fprintf(w, "    pipeline lower bound unchanged at %.0f MiB/s (encrypt still dominates)\n",
		mibs(a1.ThroughputLower))
	fmt.Fprintf(w, "    delay estimate: %.2f -> %.2f µs\n", us(a0.DelayEstimate), us(a1.DelayEstimate))

	// Back-pressure as a shaper: throttle the arrival to the sustainable
	// rate; the steady-state bounds become finite.
	shaped := base
	shaped.Arrival.Extra = []core.Bucket{{Rate: a0.ThroughputLower, Burst: 2 * units.KiB}}
	a2, err := core.Analyze(shaped)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  arrival shaped to the sustainable %.0f MiB/s:\n", mibs(a0.ThroughputLower))
	fmt.Fprintf(w, "    overloaded: %v -> %v\n", a0.Overloaded, a2.Overloaded)
	if !a2.Overloaded {
		fmt.Fprintf(w, "    finite steady-state bounds: delay %.2f µs, backlog %.2f KiB\n",
			us(a2.DelayBound), kib(a2.BacklogBound))
	}
	return nil
}

// Overload exercises the future-work extension: transient growth, time to
// overflow, and sustainable-rate guidance for the overloaded BLAST intake.
func Overload(w io.Writer, o Options) error {
	ov, err := core.AnalyzeOverload(blastmodel.Pipeline())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  overloaded: %v (arrival %.0f vs service %.0f MiB/s)\n",
		ov.Overloaded, mibs(ov.ArrivalRate), mibs(ov.ServiceRate))
	fmt.Fprintf(w, "  backlog growth rate: %.0f MiB/s\n", mibs(ov.GrowthRate))
	for _, buf := range []units.Bytes{32 * units.MiB, 128 * units.MiB, 512 * units.MiB} {
		d, reached := ov.TimeToFill(buf)
		if reached {
			fmt.Fprintf(w, "  a %s buffer overflows after %.1f ms\n", buf.String(), ms(d))
		} else {
			fmt.Fprintf(w, "  a %s buffer never overflows\n", buf.String())
		}
	}
	fmt.Fprintf(w, "  sustainable arrival rate: %.0f MiB/s (throttle target)\n", mibs(ov.SustainableRate))
	return nil
}
