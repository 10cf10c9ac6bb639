package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/sim"
	"streamcalc/internal/stats"
	"streamcalc/internal/units"
)

// CrossVal addresses the paper's future-work call to "validate the models
// over a wider range of empirical experiments": it draws a family of random
// stable pipelines, bounds each analytically (per-node packetized curves,
// concatenated, plus aggregation delays), simulates each, and reports the
// tightness of the bounds — the fraction of the analytic bound that the
// simulation actually reaches. A violation count of zero is the soundness
// check; the tightness distribution quantifies how conservative the bounds
// are across the family.
func CrossVal(w io.Writer, o Options) error {
	trials := 80
	if o.Quick {
		trials = 20
	}

	var delayTight, backlogTight stats.Summary
	violations := 0
	var rows [][]float64

	for trial := 0; trial < trials; trial++ {
		// Each trial owns an independent RNG stream derived from (seed,
		// trial), so the generated family — and therefore the soundness
		// check below — is invariant to how many draws any one trial makes.
		// The check must hold for every draw sequence, not one frozen one.
		rng := rand.New(rand.NewSource(int64(o.seed()*0x9e3779b97f4a7c15 + uint64(trial))))
		n := 1 + rng.Intn(3)
		arrRate := units.Rate(100 + rng.Float64()*400)
		packet := units.Bytes(float64(int(8) << rng.Intn(4)))
		nodes := make([]core.Node, n)
		for i := range nodes {
			job := packet.Mul(float64(int(1) << rng.Intn(3)))
			nodes[i] = core.Node{
				Name:      fmt.Sprintf("n%d", i),
				Rate:      arrRate.Mul(1.15 + rng.Float64()*2),
				Latency:   time.Duration(rng.Intn(50)) * time.Millisecond,
				JobIn:     job,
				JobOut:    job,
				MaxPacket: job,
			}
		}
		p := core.Pipeline{
			Name: "crossval",
			Arrival: core.Arrival{
				Rate:      arrRate,
				Burst:     units.Bytes(rng.Float64() * 200),
				MaxPacket: packet,
			},
			Nodes: nodes,
		}
		// Chain bound: the concatenated per-node packetized curves with the
		// aggregation delays inserted as pure-delay elements, which
		// core.ChainBound evaluates in scalars (the bound that backs
		// admission promises). The deviations against α' are the whole
		// bound — no discretization fudge terms: α' already covers the
		// source's packet staircase (α'(t) = α(t) + l_max ≥ b + P·⌈rt/P⌉),
		// and the aggregation hold-back is in the chain itself.
		delayBound, backlog, _, ok := core.ChainBound(p.Arrival, p.Nodes, nil)
		if !ok {
			return fmt.Errorf("crossval: trial %d: the pipeline is not stable", trial)
		}
		backlogBound := float64(backlog)

		sp := sim.New(sim.SourceConfig{
			Rate:       p.Arrival.Rate,
			PacketSize: packet,
			Burst:      p.Arrival.Burst,
			TotalInput: units.Bytes(float64(arrRate) * 2),
		}, o.seed()+uint64(trial))
		for _, nd := range nodes {
			cfg := sim.StageFromRate(nd.Name, nd.Rate, nd.Rate.Mul(1+rng.Float64()*0.3), nd.JobIn, nd.JobOut)
			cfg.Startup = nd.Latency
			sp.Add(cfg)
		}
		res, err := sp.Run()
		if err != nil {
			return err
		}
		dT := res.DelayMax.Seconds() / delayBound
		bT := float64(res.MaxBacklog) / backlogBound
		delayTight.Add(dT)
		backlogTight.Add(bT)
		// Soundness: bound ≥ simulation. Both sides are exact curve algebra
		// and event arithmetic in float64, so the only slack a sound model
		// needs is rounding noise — a relative 1e-9 (≈ few ulps over the
		// operation chains involved), NOT a packet or byte of headroom.
		if dT > 1+1e-9 || bT > 1+1e-9 {
			violations++
			fmt.Fprintf(w, "  VIOLATION trial %d: delay sim/bound %.6f, backlog sim/bound %.6f\n", trial, dT, bT)
		}
		rows = append(rows, []float64{float64(trial), delayBound, res.DelayMax.Seconds(), backlogBound, float64(res.MaxBacklog)})
	}

	fmt.Fprintf(w, "  random stable pipelines: %d (1-3 stages each)\n", trials)
	fmt.Fprintf(w, "  bound violations: %d\n", violations)
	fmt.Fprintf(w, "  delay tightness   sim/bound: mean %.2f, min %.2f, max %.2f\n",
		delayTight.Mean(), delayTight.Min(), delayTight.Max())
	fmt.Fprintf(w, "  backlog tightness sim/bound: mean %.2f, min %.2f, max %.2f\n",
		backlogTight.Mean(), backlogTight.Min(), backlogTight.Max())
	fmt.Fprintf(w, "  (1.0 = the simulation reaches the bound exactly; bounds are sound when\n")
	fmt.Fprintf(w, "   violations = 0 and useful when tightness stays near 1)\n")
	if err := writeCSV(o, "crossval.csv",
		[]string{"trial", "delay_bound_s", "sim_delay_s", "backlog_bound_B", "sim_backlog_B"}, rows); err != nil {
		return err
	}
	// A violated bound is a model-soundness failure, not a statistic: fail
	// the experiment so CI and the experiment harness cannot miss it.
	if violations > 0 {
		return fmt.Errorf("crossval: %d of %d analytic bounds violated by simulation", violations, trials)
	}
	return nil
}
