package core_test

// Fuzzed soundness of the FIFO tightness ladder: a server at full rate R
// shared FIFO-order between the flow of interest and greedy cross traffic
// is simulated as one merged greedy source — the worst case for every
// byte's virtual delay, and with both flows bursting at t = 0 the
// worst-delayed byte can always be attributed to the flow of interest
// (the cross flow fills the front of the burst, the foi the tail). Every
// rung's analytic delay bound for the flow of interest must therefore
// cover the simulated p100 delay. The server rate is drawn down to 1.02×
// the total load, where the FIFO bounds are tightest.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/sim"
	"streamcalc/internal/units"
)

func TestRungBoundsCoverFIFOSim(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	highest := map[core.Rung]float64{}
	for trial := 0; trial < 200; trial++ {
		packet := units.Bytes(float64(int(8) << rng.Intn(3)))
		rf := units.Rate(50 + rng.Float64()*200)
		bf := units.Bytes(rng.Float64() * 100)
		rc := units.Rate(50 + rng.Float64()*200)
		bc := units.Bytes(rng.Float64() * 200)
		total := rf + rc
		R := total.Mul(1.02 + 1.18*rng.Float64())
		T := time.Duration(rng.Intn(40)) * time.Millisecond

		p := core.Pipeline{
			Name:    "fifo-sim",
			Arrival: core.Arrival{Rate: rf, Burst: bf, MaxPacket: packet},
			Nodes: []core.Node{{
				Name: "s", Rate: R, Latency: T,
				JobIn: packet, JobOut: packet, MaxPacket: packet,
				CrossRate: rc, CrossBurst: bc,
			}},
		}

		sp := sim.New(sim.SourceConfig{
			Rate:       total,
			PacketSize: packet,
			Burst:      bf + bc,
			TotalInput: units.Bytes(float64(total) * 2),
		}, uint64(trial)+5)
		scfg := sim.StageFromRate("s", R, R, packet, packet)
		scfg.Startup = T
		sp.Add(scfg)
		res, err := sp.Run()
		if err != nil {
			t.Fatal(err)
		}

		for _, r := range core.Rungs() {
			bound := core.RungDelayBound(p, r)
			got := res.DelayMax.Seconds()
			highest[r] = max(highest[r], got/bound)
			if got > bound*(1+1e-9) {
				t.Errorf("trial %d: rung %v bound %.6fs below simulated FIFO delay %.6fs\nR=%v T=%v foi=(%v,%v) cross=(%v,%v) packet=%v",
					trial, r, bound, got, R, T, rf, bf, rc, bc, packet)
			}
		}
	}
	var report string
	for _, r := range core.Rungs() {
		report += fmt.Sprintf(" %v %.3f", r, highest[r])
	}
	t.Logf("highest simulated/bound delay ratio:%s", report)
}
