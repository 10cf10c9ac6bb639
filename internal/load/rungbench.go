package load

import (
	"fmt"
	"strings"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

// This file is the tight-rung cost harness behind ncload -rungbench: it
// times the prefix-sharing θ-lattice search against the exhaustive
// per-vector reference at matched combo budgets (verifying the winning
// vectors are bit-identical along the way), then pushes the DP alone
// through lattice sizes the exhaustive formulation could never afford.
// The artifact lands in results/rung_scaling.json and, through the
// benchjson bridge, BENCH_rung.json.

// RungBenchConfig drives the lattice-cost comparison.
type RungBenchConfig struct {
	// Reps is the number of runs per measurement; the minimum is reported.
	// Default 3.
	Reps int
	// MinSpeedup is the matched-case acceptance floor for Check. The local
	// artifact records ~an order of magnitude; CI gates conservatively.
	// Default 3.
	MinSpeedup float64
	Logf       func(format string, args ...any)
}

// RungBenchCase is one (nodes, budget) measurement.
type RungBenchCase struct {
	Nodes  int `json:"nodes"`
	Budget int `json:"budget"`
	// Combos is the lattice size after grid thinning (scored + pruned).
	Combos int `json:"combos"`
	Scored int `json:"scored"`
	Pruned int `json:"pruned"`
	// DPNanos and ExhaustiveNanos are wall-clock times (minimum over
	// reps); ExhaustiveNanos is zero for the DP-only scaling cases.
	DPNanos         int64   `json:"dp_ns"`
	ExhaustiveNanos int64   `json:"exhaustive_ns,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	// Match reports that both implementations returned the same winning
	// θ-vector and delay bound, bit for bit (matched cases only).
	Match      bool          `json:"match"`
	DelayBound time.Duration `json:"delay_bound_ns"`
}

// RungBenchReport is the rung-cost artifact (results/rung_scaling.json).
type RungBenchReport struct {
	Scenario   string          `json:"scenario"`
	Reps       int             `json:"reps"`
	MinSpeedup float64         `json:"min_speedup"`
	Cases      []RungBenchCase `json:"cases"`
}

// rungBenchPipeline builds a deterministic n-node chain where every node
// carries cross traffic with distinct rates, latencies, and bursts, so each
// node contributes a full θ grid and the joint lattice is as rich as the
// candidate generator allows.
func rungBenchPipeline(n int) core.Pipeline {
	nodes := make([]core.Node, n)
	for i := range nodes {
		rate := units.Rate(100e6 + 10e6*float64(i))
		nodes[i] = core.Node{
			Name:    fmt.Sprintf("x%d", i),
			Rate:    rate,
			Latency: time.Duration(20+10*i) * time.Millisecond,
			JobIn:   1500, JobOut: 1500, MaxPacket: 1500,
			CrossRate:  rate.Mul(0.35 + 0.05*float64(i%3)),
			CrossBurst: units.Bytes(2e6 + 5e5*float64(i)),
		}
	}
	return core.Pipeline{
		Name:    "rung-bench",
		Arrival: core.Arrival{Rate: 5e6, Burst: 4e6, MaxPacket: 1500},
		Nodes:   nodes,
		Rung:    core.RungTight,
	}
}

// timeMin runs fn reps times and returns the minimum wall clock plus the
// last result. Nothing is cached between runs: core.Analyze takes no memo.
func timeMin(reps int, fn func() (*core.Analysis, error)) (int64, *core.Analysis, error) {
	best := int64(0)
	var a *core.Analysis
	for r := 0; r < reps; r++ {
		start := time.Now()
		res, err := fn()
		took := time.Since(start).Nanoseconds()
		if err != nil {
			return 0, nil, err
		}
		if best == 0 || took < best {
			best = took
		}
		a = res
	}
	return best, a, nil
}

// sameWinner reports bit-identical winning θ-vectors and delay bounds.
func sameWinner(a, b *core.Analysis) bool {
	if a.DelayBound != b.DelayBound || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i].FIFOTheta != b.Nodes[i].FIFOTheta {
			return false
		}
	}
	return true
}

// RungBench measures the tight-rung search cost across node count × lattice
// budget: DP vs exhaustive at matched budgets small enough for the
// reference, then DP alone at full-resolution budgets.
func RungBench(cfg RungBenchConfig) (*RungBenchReport, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	if cfg.MinSpeedup <= 0 {
		cfg.MinSpeedup = 3
	}
	rep := &RungBenchReport{
		Scenario:   "rung-bench/cross-chain",
		Reps:       cfg.Reps,
		MinSpeedup: cfg.MinSpeedup,
	}
	type caseSpec struct {
		nodes, budget int
		matched       bool
	}
	// The per-node grids are small (a rate-latency service against an
	// affine cross envelope yields a handful of structural θ candidates),
	// so the lattice grows with node count; the budget axis exercises the
	// thinning path (the 64-budget rows force it) and the full-resolution
	// headroom the raised default cap buys on 5-6 cross nodes, where the
	// pre-DP 2048 cap already had to thin.
	var specs []caseSpec
	for _, n := range []int{2, 3, 4, 5, 6} {
		for _, b := range []int{64, 2048, 65536} {
			specs = append(specs, caseSpec{n, b, true})
		}
	}
	for _, n := range []int{7, 8} {
		specs = append(specs, caseSpec{n, 65536, false})
	}
	for _, sp := range specs {
		p := rungBenchPipeline(sp.nodes)
		dpNs, dp, err := timeMin(cfg.Reps, func() (*core.Analysis, error) {
			return core.AnalyzeTightBudget(p, sp.budget)
		})
		if err != nil {
			return nil, fmt.Errorf("rung bench: dp n=%d budget=%d: %w", sp.nodes, sp.budget, err)
		}
		c := RungBenchCase{
			Nodes: sp.nodes, Budget: sp.budget,
			Combos: dp.TightCombos + dp.TightPruned,
			Scored: dp.TightCombos, Pruned: dp.TightPruned,
			DPNanos: dpNs, DelayBound: dp.DelayBound,
		}
		if sp.matched {
			exNs, ex, err := timeMin(cfg.Reps, func() (*core.Analysis, error) {
				return core.AnalyzeTightExhaustive(p, sp.budget)
			})
			if err != nil {
				return nil, fmt.Errorf("rung bench: exhaustive n=%d budget=%d: %w", sp.nodes, sp.budget, err)
			}
			c.ExhaustiveNanos = exNs
			c.Speedup = float64(exNs) / float64(dpNs)
			c.Match = sameWinner(dp, ex)
		}
		if cfg.Logf != nil {
			if sp.matched {
				cfg.Logf("n=%d budget=%-5d combos=%-5d dp=%-10v exhaustive=%-10v speedup=%5.1fx pruned=%d match=%v",
					c.Nodes, c.Budget, c.Combos, time.Duration(c.DPNanos),
					time.Duration(c.ExhaustiveNanos), c.Speedup, c.Pruned, c.Match)
			} else {
				cfg.Logf("n=%d budget=%-5d combos=%-5d dp=%-10v pruned=%d (dp-only)",
					c.Nodes, c.Budget, c.Combos, time.Duration(c.DPNanos), c.Pruned)
			}
		}
		rep.Cases = append(rep.Cases, c)
	}
	return rep, nil
}

// Check asserts the rung-cost acceptance invariants: every matched case
// returned a bit-identical winner, every large matched lattice (>= 500
// combos; smaller ones are setup-dominated and exempt) cleared the speedup
// floor, and the search counters covered each lattice exactly.
func (r *RungBenchReport) Check() error {
	matched, large := 0, 0
	for _, c := range r.Cases {
		if c.Scored+c.Pruned != c.Combos || c.Scored <= 0 {
			return fmt.Errorf("rung bench: n=%d budget=%d: counters %d+%d do not cover lattice %d",
				c.Nodes, c.Budget, c.Scored, c.Pruned, c.Combos)
		}
		if c.ExhaustiveNanos == 0 {
			continue
		}
		matched++
		if !c.Match {
			return fmt.Errorf("rung bench: n=%d budget=%d: DP and exhaustive winners differ",
				c.Nodes, c.Budget)
		}
		if c.Combos >= 500 {
			large++
			if c.Speedup < r.MinSpeedup {
				return fmt.Errorf("rung bench: n=%d budget=%d: speedup %.1fx below the %.1fx floor",
					c.Nodes, c.Budget, c.Speedup, r.MinSpeedup)
			}
		}
	}
	if matched == 0 {
		return fmt.Errorf("rung bench: no matched DP-vs-exhaustive cases")
	}
	if large == 0 {
		return fmt.Errorf("rung bench: no matched case had a large enough lattice to gate the speedup")
	}
	return nil
}

// BenchText renders the cases as Go benchmark lines for the
// .github/benchjson converter — the bridge into BENCH_rung.json.
func (r *RungBenchReport) BenchText() string {
	var b strings.Builder
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "BenchmarkRungLatticeN%dC%d 1 %d ns/op %d combos %d pruned",
			c.Nodes, c.Budget, c.DPNanos, c.Combos, c.Pruned)
		if c.ExhaustiveNanos > 0 {
			fmt.Fprintf(&b, " %d exhaustive-ns %.1f speedup", c.ExhaustiveNanos, c.Speedup)
		}
		b.WriteString("\n")
	}
	return b.String()
}
