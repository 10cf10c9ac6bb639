package load

import (
	"fmt"
	"slices"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

// RungSweepConfig drives the FIFO-ladder comparison: the same shared platform
// is filled with identical-SLA tenants once per analysis rung, so the
// admitted-flow counts measure exactly what the tightness knob buys.
type RungSweepConfig struct {
	// Rungs to sweep (default: blind, fifo, tight).
	Rungs []core.Rung
	// MaxFlows caps the fill per rung (default 64).
	MaxFlows int
	// Replay validates every admitted flow by sim replay at its residual
	// service after the fill; Replay.Total defaults to 1 MiB.
	Replay admit.ReplayOptions
	Logf   func(format string, args ...any)
}

// LatencyStats summarizes measured latencies (exact percentiles over every
// sample, not histogram interpolation).
type LatencyStats struct {
	Count int           `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
	Mean  time.Duration `json:"mean_ns"`
}

// summarize computes exact percentile statistics; ns is consumed (sorted in
// place).
func summarize(ns []int64) LatencyStats {
	s := LatencyStats{Count: len(ns)}
	if len(ns) == 0 {
		return s
	}
	slices.Sort(ns)
	q := func(p float64) time.Duration {
		return time.Duration(ns[int(p*float64(len(ns)-1))])
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	s.P50, s.P90, s.P99 = q(0.50), q(0.90), q(0.99)
	s.Max = time.Duration(ns[len(ns)-1])
	s.Mean = time.Duration(sum / int64(len(ns)))
	return s
}

// RungResult is one rung's fill outcome.
type RungResult struct {
	Rung     string `json:"rung"`
	Admitted int    `json:"admitted"`
	// FirstDelay and LastDelay are the promised delay bounds of the first
	// and last admitted flow — how the bound degrades as the node fills.
	FirstDelay time.Duration `json:"first_delay_ns"`
	LastDelay  time.Duration `json:"last_delay_ns"`
	// Decide summarizes the per-admission decision latency (the cost axis
	// of the accuracy/tractability trade).
	Decide LatencyStats `json:"decide"`
	// Violations counts sim-replay bound violations across the admitted
	// flows (must be 0: every rung's bounds are sound, tighter rungs are
	// just less pessimistic).
	Violations int `json:"violations"`
}

// RungSweepReport is the rung-comparison artifact (results/rung_sweep.json).
type RungSweepReport struct {
	Scenario string        `json:"scenario"`
	SLO      time.Duration `json:"slo_ns"`
	MaxFlows int           `json:"max_flows"`
	Seed     uint64        `json:"seed"`
	Rungs    []RungResult  `json:"rungs"`
}

// rungSweepScenario is the canonical sweep platform: one shared 100 MB/s
// node filled by 5 MB/s tenants with 4 MB bursts under an 800 ms delay SLO.
// The numbers are chosen so the ladder separates: the blind residual charges
// every tenant the full cross burst at the residual rate, while the FIFO
// left-over family absorbs it into the theta shift, so the tighter rungs
// keep admitting well after blind's bound crosses the SLO.
func rungSweepScenario() (core.Node, admit.Flow, time.Duration) {
	node := core.Node{
		Name: "shared", Rate: 100e6, Latency: 100 * time.Millisecond,
		JobIn: 1500, JobOut: 1500, MaxPacket: 1500,
	}
	tenant := admit.Flow{
		Arrival: core.Arrival{Rate: 5e6, Burst: 4e6, MaxPacket: 1500},
		Path:    []string{"shared"},
	}
	return node, tenant, 800 * time.Millisecond
}

// RungSweep fills the sweep platform once per rung with identical tenants
// and reports admitted counts, decision-latency stats, and replay soundness.
// The acceptance invariant — tighter rungs admit at least as many flows, the
// tight rung strictly more than blind, all with zero replay violations — is
// Check, which ncload -rungsweep (the CI gate) turns into its exit status.
func RungSweep(cfg RungSweepConfig) (*RungSweepReport, error) {
	if len(cfg.Rungs) == 0 {
		cfg.Rungs = []core.Rung{core.RungBlind, core.RungFIFO, core.RungTight}
	}
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = 64
	}
	if cfg.Replay.Total <= 0 {
		cfg.Replay.Total = units.MiB
	}
	node, tenant, slo := rungSweepScenario()
	rep := &RungSweepReport{
		Scenario: "rung-sweep/shared-node",
		SLO:      slo,
		MaxFlows: cfg.MaxFlows,
		Seed:     cfg.Replay.Seed,
	}
	for _, r := range cfg.Rungs {
		c, err := admit.New("rung-sweep", []core.Node{node})
		if err != nil {
			return nil, err
		}
		c.SetRung(r)
		res := RungResult{Rung: r.Resolved().String()}
		lat := make([]int64, 0, cfg.MaxFlows)
		for i := 0; i < cfg.MaxFlows; i++ {
			f := tenant
			f.ID = fmt.Sprintf("t-%d", i)
			f.SLO = admit.SLO{MaxDelay: slo}
			start := time.Now()
			v := c.Admit(f)
			lat = append(lat, time.Since(start).Nanoseconds())
			if !v.Admitted {
				break
			}
			if res.Admitted == 0 {
				res.FirstDelay = v.Delay
			}
			res.LastDelay = v.Delay
			res.Admitted++
		}
		res.Decide = summarize(lat)
		rv, err := c.RevalidateAll(admit.RevalidateOptions{Replay: cfg.Replay})
		if err != nil {
			return nil, fmt.Errorf("rung %s: revalidate: %w", res.Rung, err)
		}
		res.Violations = rv.Violations
		if cfg.Logf != nil {
			cfg.Logf("rung %-5s admitted %2d/%d (bound %v → %v), decide p99 %v, %d replay violations",
				res.Rung, res.Admitted, cfg.MaxFlows, res.FirstDelay, res.LastDelay,
				res.Decide.P99, res.Violations)
		}
		rep.Rungs = append(rep.Rungs, res)
	}
	return rep, nil
}

// Result returns the sweep outcome for one rung name, or nil.
func (r *RungSweepReport) Result(rung string) *RungResult {
	for i := range r.Rungs {
		if r.Rungs[i].Rung == rung {
			return &r.Rungs[i]
		}
	}
	return nil
}

// Check asserts the ladder acceptance invariants: no rung's replay violated
// a promised bound, admitted counts are non-decreasing up the ladder, and
// the tightest swept rung admits strictly more flows than the cheapest.
func (r *RungSweepReport) Check() error {
	if len(r.Rungs) < 2 {
		return fmt.Errorf("rung sweep: need at least 2 rungs, got %d", len(r.Rungs))
	}
	for i, res := range r.Rungs {
		if res.Violations > 0 {
			return fmt.Errorf("rung sweep: rung %s had %d replay violations", res.Rung, res.Violations)
		}
		if i > 0 && res.Admitted < r.Rungs[i-1].Admitted {
			return fmt.Errorf("rung sweep: rung %s admitted %d < %s's %d",
				res.Rung, res.Admitted, r.Rungs[i-1].Rung, r.Rungs[i-1].Admitted)
		}
	}
	first, last := r.Rungs[0], r.Rungs[len(r.Rungs)-1]
	if last.Admitted <= first.Admitted {
		return fmt.Errorf("rung sweep: %s admitted %d, not strictly more than %s's %d",
			last.Rung, last.Admitted, first.Rung, first.Admitted)
	}
	return nil
}
