package main

import (
	"fmt"
	"runtime"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/apps/bitwmodel"
	"streamcalc/internal/apps/blastmodel"
	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/des"
	"streamcalc/internal/sim"
	"streamcalc/internal/spec"
	"streamcalc/internal/units"
)

// The layers below admit are probed by direct timed calls on inputs
// harvested from the twin after the serial pass: the pipelines its flows see
// now, and the curves those pipelines produce. These are outside-in
// estimates, not a ledger that sums to wall clock.

const (
	probeClasses = 16 // classes harvested, most popular first
	probeReps    = 3
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink struct {
	c curve.Curve
	f float64
	a *core.Analysis
}

// harvested is one class as the twin sees it now.
type harvested struct {
	pipe core.Pipeline // path nodes with today's cross traffic
	wire spec.Pipeline // the same path as a simulable description
}

func harvest(pop *population, c *admit.Controller) ([]harvested, []admit.Residual, error) {
	pl, err := spec.ParsePlatform([]byte(pop.platform))
	if err != nil {
		return nil, nil, err
	}
	wireNode := map[string]spec.Node{}
	residual := map[string]admit.Residual{}
	var residuals []admit.Residual
	for _, n := range pl.Nodes {
		wireNode[n.Name] = n
		r, err := c.ResidualService(n.Name)
		if err != nil {
			return nil, nil, err
		}
		residual[n.Name] = r
		residuals = append(residuals, r)
	}
	var out []harvested
	for ci := 0; ci < min(len(pop.classes), probeClasses); ci++ {
		wf, err := spec.ParseFlow([]byte(flowBody(fmt.Sprintf("class-%d", ci), pop.classes[ci].tail)))
		if err != nil {
			return nil, nil, err
		}
		f, err := wf.Admit()
		if err != nil {
			return nil, nil, err
		}
		h := harvested{
			pipe: core.Pipeline{Name: wf.ID, Arrival: f.Arrival},
			wire: spec.Pipeline{Name: wf.ID, Arrival: wf.Arrival},
		}
		usable := true
		for _, name := range f.Path {
			r := residual[name]
			n := r.Node
			n.CrossRate, n.CrossBurst = r.Cross.Rate, r.Cross.Burst
			if r.Starved || n.CrossRate >= n.Rate {
				usable = false
			}
			h.pipe.Nodes = append(h.pipe.Nodes, n)
			h.wire.Nodes = append(h.wire.Nodes, wireNode[name])
		}
		if usable {
			out = append(out, h)
		}
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("probe: every harvested class crosses a starved node")
	}
	return out, residuals, nil
}

// timeCalls runs call probeReps times per input index (after one untimed
// warm call each) until budget is spent, and returns ns per call.
func timeCalls(budget time.Duration, n int, call func(i int)) []float64 {
	var out []float64
	start := time.Now()
	for i := 0; i < n && time.Since(start) < budget; i++ {
		call(i)
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			call(i)
			out = append(out, float64(time.Since(t0)))
		}
	}
	return out
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func probeLayers(e *env, pop *population, c *admit.Controller, batches []string, res *runResult) error {
	hs, residuals, err := harvest(pop, c)
	if err != nil {
		return err
	}
	if err := probeCore(e.shape.probeBudget, pop, hs, res); err != nil {
		return err
	}
	if err := probeCurve(e.shape.probeBudget, pop, hs, residuals, res); err != nil {
		return err
	}
	if err := probeSim(e, pop, hs, res); err != nil {
		return err
	}
	return probeSpec(e, pop, batches, res)
}

func probeCore(budget time.Duration, pop *population, hs []harvested, res *runResult) error {
	var tightCombos, tightPruned float64
	for _, rung := range core.Rungs() {
		var failed error
		ns := timeCalls(budget, len(hs), func(i int) {
			p := hs[i].pipe
			p.Rung = rung
			a, err := core.Analyze(p)
			if err != nil {
				failed = err
				return
			}
			sink.a = a
		})
		if failed != nil {
			return fmt.Errorf("probe: core.Analyze at %s: %w", rung, failed)
		}
		res.set("core.analyze_us_p50."+rung.String(), median(ns)/1e3, "us")
	}
	for _, h := range hs {
		p := h.pipe
		p.Rung = core.RungTight
		a, err := core.Analyze(p)
		if err != nil {
			return err
		}
		tightCombos += float64(a.TightCombos)
		tightPruned += float64(a.TightPruned)
	}
	res.set("core.tight_combos_mean", tightCombos/float64(len(hs)), "count")
	res.set("core.tight_pruned_share", tightPruned/max(tightCombos+tightPruned, 1), "ratio")

	memo := core.NewMemo()
	rung, err := core.ParseRung(pop.w.rung)
	if err != nil {
		return err
	}
	hits := timeCalls(budget, len(hs), func(i int) {
		p := hs[i].pipe
		p.Rung = rung
		sink.a, _ = core.AnalyzeMemo(p, memo) // errors surfaced by the Analyze probes above
	})
	res.set("core.memo_hit_ns", median(hits), "ns")

	p := hs[0].pipe
	const allocCalls = 64
	m0 := mallocs()
	for i := 0; i < allocCalls; i++ {
		sink.a, _ = core.Analyze(p)
	}
	res.set("core.allocs_per_analyze", float64(mallocs()-m0)/allocCalls, "count")

	var failed error
	paper := timeCalls(budget, 8, func(int) {
		if _, err := blastmodel.Analyze(); err != nil {
			failed = err
		}
		if _, err := bitwmodel.Analyze(); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return fmt.Errorf("probe: paper model analysis: %w", failed)
	}
	res.set("core.paper_analyze_us", median(paper)/1e3, "us")
	return nil
}

// perturb returns a digest-distinct copy of c (values scaled by a hair), so
// a timed operator call misses the process-wide op memo.
func perturb(c curve.Curve, r int) curve.Curve { return curve.Scale(c, 1+float64(r+1)*1e-6) }

func probeCurve(budget time.Duration, pop *population, hs []harvested, residuals []admit.Residual, res *runResult) error {
	rung, err := core.ParseRung(pop.w.rung)
	if err != nil {
		return err
	}
	var as []*core.Analysis
	for _, h := range hs {
		p := h.pipe
		p.Rung = rung
		a, err := core.Analyze(p)
		if err != nil {
			return err
		}
		as = append(as, a)
	}
	segs, operands := 0, 0
	use := func(cs ...curve.Curve) {
		for _, c := range cs {
			segs += len(c.Segments())
			operands++
		}
	}
	// timeOp times op on a fresh perturbation of the pair every call, one
	// pair per harvested analysis; memoHit times the repeat of each call.
	var memoHit []float64
	timeOp := func(name string, pair func(i int, a *core.Analysis) (f, g curve.Curve), op func(f, g curve.Curve)) {
		var ns []float64
		start := time.Now()
		for i, a := range as {
			if time.Since(start) > budget {
				break
			}
			f0, g0 := pair(i, a)
			use(f0, g0)
			for r := 0; r < probeReps; r++ {
				f, g := perturb(f0, i*probeReps+r), perturb(g0, i*probeReps+r)
				t0 := time.Now()
				op(f, g)
				ns = append(ns, float64(time.Since(t0)))
				if name == "convolve" {
					t0 = time.Now()
					op(f, g)
					memoHit = append(memoHit, float64(time.Since(t0)))
				}
			}
		}
		res.set("curve."+name+"_ns", median(ns), "ns")
	}
	last := func(a *core.Analysis) core.NodeAnalysis { return a.Nodes[len(a.Nodes)-1] }
	timeOp("convolve", func(_ int, a *core.Analysis) (f, g curve.Curve) { return a.Nodes[0].Beta, last(a).Beta },
		func(f, g curve.Curve) { sink.c = curve.Convolve(f, g) })
	timeOp("deconvolve", func(_ int, a *core.Analysis) (f, g curve.Curve) { return last(a).AlphaIn, last(a).Beta },
		func(f, g curve.Curve) { sink.c, _ = curve.Deconvolve(f, g) })
	timeOp("min", func(_ int, a *core.Analysis) (f, g curve.Curve) { return a.Alpha, a.Gamma },
		func(f, g curve.Curve) { sink.c = curve.Min(f, g) })
	timeOp("hdev", func(_ int, a *core.Analysis) (f, g curve.Curve) { return a.Alpha, a.Beta },
		func(f, g curve.Curve) { sink.f = curve.HDev(f, g) })
	timeOp("vdev", func(_ int, a *core.Analysis) (f, g curve.Curve) { return a.Alpha, a.Beta },
		func(f, g curve.Curve) { sink.f = curve.VDev(f, g) })
	// Residual operators take a node's whole service and its whole cross
	// aggregate, cycling over the platform's nodes.
	node := func(i int, _ *core.Analysis) (beta, cross curve.Curve) {
		r := residuals[i%len(residuals)]
		return curve.RateLatency(float64(r.Node.Rate), r.Node.Latency.Seconds()),
			curve.Affine(float64(r.Cross.Rate), float64(r.Cross.Burst))
	}
	timeOp("residual", node, func(f, g curve.Curve) { sink.c, _ = curve.ResidualService(f, g) })
	timeOp("fifo_residual", node, func(f, g curve.Curve) {
		theta, _ := curve.FIFOThetaMax(f, g)
		sink.c, _ = curve.FIFOResidual(f, g, theta/2)
	})
	// The maximum of two concave envelopes is in general not concave.
	timeOp("concave_hull", func(_ int, a *core.Analysis) (f, g curve.Curve) {
		return curve.Max(a.Alpha, curve.Scale(as[0].Alpha, 1.5)), a.Alpha
	}, func(f, _ curve.Curve) { sink.c = curve.ConcaveHull(f) })
	res.set("curve.memo_hit_ns", median(memoHit), "ns")
	res.set("curve.operand_segments_mean", float64(segs)/float64(operands), "count")
	return nil
}

func probeSim(e *env, pop *population, hs []harvested, res *runResult) error {
	var events, seconds float64
	for _, h := range hs {
		sp, err := h.wire.Sim(units.MiB, pop.seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		r, err := sp.Run()
		seconds += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		events += float64(r.Events)
	}
	res.set("sim.events_per_flow", events/float64(len(hs)), "count")
	res.set("sim.events_per_s", events/seconds, "1/s")

	// The paper's two pipelines: the simulated throughput must sit between
	// the analysis' bounds (with the finite-run drain-tail slack the
	// repository's own Table 1/3 ordering tests use).
	events, seconds = 0, 0
	for _, m := range []struct {
		name     string
		analyze  func() (*core.Analysis, error)
		simulate func(units.Bytes, uint64) (*sim.Result, error)
		total    units.Bytes
	}{
		{"blast", blastmodel.Analyze, blastmodel.SimulateThroughput, 256 * units.MiB},
		{"bitw", bitwmodel.Analyze, bitwmodel.SimulateThroughput, 32 * units.MiB},
	} {
		a, err := m.analyze()
		if err != nil {
			return err
		}
		t0 := time.Now()
		r, err := m.simulate(m.total, pop.seed)
		seconds += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		events += float64(r.Events)
		res.Attempted++
		if float64(a.ThroughputLower) > float64(r.Throughput)*1.02 || r.Throughput > a.ThroughputUpper {
			res.fail("%s: simulated throughput %v outside the analytic bounds [%v, %v]", m.name, r.Throughput, a.ThroughputLower, a.ThroughputUpper)
		}
	}
	res.set("sim.paper_events_per_s", events/seconds, "1/s")

	// Bare calendar: 64 self-rescheduling events keep the heap non-trivial.
	const desEvents = 1_000_000
	var s des.Simulator
	left := desEvents
	var tick func()
	tick = func() {
		if left--; left > 0 {
			s.Schedule(1, tick)
		}
	}
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i)/64, tick)
	}
	m0 := mallocs()
	t0 := time.Now()
	n, _ := s.RunAll(2 * desEvents)
	wall := time.Since(t0).Seconds()
	res.set("des.allocs_per_event", float64(mallocs()-m0)/float64(n), "count")
	res.set("des.events_per_s", float64(n)/wall, "1/s")

	// One DES replay per flow, single worker, on a small registry.
	rc, err := newTwin(pop, 3)
	if err != nil {
		return err
	}
	flows, err := parseBatch(pop.batch(0, min(e.shape.replayFlows, len(pop.preload))))
	if err != nil {
		return err
	}
	rc.AdmitBatch(flows)
	t0 = time.Now()
	rep, err := rc.RevalidateAll(admit.RevalidateOptions{
		Replay:  admit.ReplayOptions{Total: units.MiB, Seed: pop.seed},
		Workers: 1,
	})
	wall = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	res.Attempted++
	if rep.Violations > 0 || len(rep.Flows) == 0 {
		res.fail("twin revalidation: %d violations over %d flows", rep.Violations, len(rep.Flows))
	}
	res.set("sim.replay_us_per_flow", wall*1e6/float64(max(len(rep.Flows), 1)), "us")
	return nil
}

func probeSpec(e *env, pop *population, batches []string, res *runResult) error {
	var failed error
	ns := timeCalls(e.shape.probeBudget, 16, func(int) {
		pl, err := spec.ParsePlatform([]byte(pop.platform))
		if err == nil {
			_, err = pl.Controller()
		}
		if err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}
	res.set("spec.parse_platform_us", median(ns)/1e3, "us")
	m0 := mallocs()
	flows, err := parseBatch(batches[0])
	if err != nil {
		return err
	}
	res.set("spec.allocs_per_flow", float64(mallocs()-m0)/float64(len(flows)), "count")
	return nil
}
