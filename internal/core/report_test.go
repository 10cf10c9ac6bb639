package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// reportStep is one node of the report pass as analyze walks it: the flow
// entering the node as a bucket list (packet included in the first node's
// MaxPacket), the node's maximum rate, and its member δ_d ⊗ (j + s·t) less
// the aggregation delay.
type reportStep struct {
	in         Arrival
	maxRate    float64
	d, j, s    float64
	overloaded bool
}

// reportSteps replays the report pass's propagation on p at theta.
func reportSteps(p Pipeline, theta []float64) []reportStep {
	w := newWalk(p.Arrival)
	hops := appendHops(nil, &w, p.Nodes)
	out := make([]reportStep, len(hops))
	in := p.Arrival
	for i := range hops {
		h := &hops[i]
		th := 0.0
		if theta != nil && h.cross > 0 {
			th = theta[i]
		}
		d, j, s, _ := h.member(th)
		out[i] = reportStep{in, float64(h.maxRate), d - h.agg, j, s, h.overloaded}
		in = listArrival(h.output(nil, &in, d-h.agg, j, s))
	}
	return out
}

// exactOutput is the referee for one propagation step: (in ⊗ γ) ⊘ β at t,
// evaluated as the supremum over u ≥ 0 of g(t + u) − β(u) with
// g(x) = min(in(x), maxRate·x) and β = δ_d ⊗ (j + s·t). Both sides are
// piecewise linear, so the supremum sits where t + u is a crossing of two of
// g's lines or u is 0 or d (β(d) = 0, the value before the jump); the
// step's own closed form is not in it. scale is the largest g(t + u) it
// subtracts from, the magnitude its rounding is relative to.
func exactOutput(st reportStep, t float64) (sup, scale float64) {
	l := float64(st.in.MaxPacket)
	lines := [][2]float64{{st.maxRate, 0}, {float64(st.in.Rate), float64(st.in.Burst) + l}}
	for _, b := range st.in.Extra {
		lines = append(lines, [2]float64{float64(b.Rate), float64(b.Burst) + l})
	}
	g := func(x float64) float64 {
		v := math.Inf(1)
		for _, ln := range lines {
			v = min(v, ln[0]*x+ln[1])
		}
		return v
	}
	beta := func(u float64) float64 {
		if u <= st.d {
			return 0
		}
		return st.j + st.s*(u-st.d)
	}
	us := []float64{0, st.d}
	for a := range lines {
		for _, q := range lines[a+1:] {
			if p := lines[a]; p[0] != q[0] {
				if x := (q[1] - p[1]) / (p[0] - q[0]); x > t {
					us = append(us, x-t)
				}
			}
		}
	}
	sup = math.Inf(-1)
	for _, u := range us {
		sup = max(sup, g(t+u)-beta(u))
		scale = max(scale, math.Abs(g(t+u)))
	}
	return sup, scale
}

// samplePoints returns the midpoints between consecutive breakpoints of the
// given curves, a point before the first positive one and one past the last:
// points where neither curve jumps.
func samplePoints(xs ...[]float64) []float64 {
	var all []float64
	for _, x := range xs {
		all = append(all, x...)
	}
	sort.Float64s(all)
	var out []float64
	for i := 1; i < len(all); i++ {
		if all[i] > all[i-1] {
			out = append(out, all[i-1]+(all[i]-all[i-1])/2)
		}
	}
	last := all[len(all)-1]
	return append(out, last+1+last, 1e-12)
}

// near reports |got − want| ≤ rel·|want| + abs.
func near(got, want, rel, abs float64) bool { return math.Abs(got-want) <= rel*math.Abs(want)+abs }

// reportCensus counts, at one rung, the node entries where the scalar report
// pass and the curve engine's disagree beyond the tolerance, by field and
// direction (the scalar value higher or lower).
type reportCensus struct {
	draws, skipped                                                    int
	alphaHigh, alphaLow, delayHigh, delayLow, backlogHigh, backlogLow int
	worstDelay, worstBklg                                             float64
}

// The report pass in scalars against the curve engine's, on the 10 000
// seed-25 draws and the fuzz corpus, at blind and at fifo's θ optimum. The
// error, the overload, the bottleneck, the throughput bounds and the θ-vector
// match exactly. Per node, AlphaIn is compared at sample points, DelayBound
// within 1 ns + 1e-9 relative and BacklogBound within 1e-9 relative. Every
// disagreement goes to the referees: exactOutput, the step's supremum taken
// point by point from the previous node's list, and splitBound, the exact
// deviations of the node's list against its member. At blind the referees
// side with the scalars on every one. At fifo the step takes the least
// concave majorant of an output that is not concave, so AlphaIn may lie
// above exactOutput but never below it, and the deviations against it stay
// exact. The disagreements are counted, by field and direction, against
// reportCensuses. Draws whose engine pass panics are skipped.
func TestReportPassIsEnginePass(t *testing.T) {
	var draws []Pipeline
	rng := rand.New(rand.NewSource(screenSeed))
	for trial := 0; trial < 10000; trial++ {
		draws = append(draws, randomScreenPipeline(rng))
	}
	for _, seed := range screenFuzzSeeds {
		draws = append(draws, randomScreenPipeline(rand.New(rand.NewSource(seed))))
	}
	for _, rung := range []Rung{RungBlind, RungFIFO} {
		var c reportCensus
		for i, p := range draws {
			p.Rung = rung
			var theta []float64
			if rung != RungBlind {
				theta = optimum(p)
			}
			e, eerr, panicked := enginePassOrPanic(p, theta)
			if panicked {
				c.skipped++
				continue
			}
			a, err := Analyze(p)
			if fmt.Sprint(err) != fmt.Sprint(eerr) {
				t.Fatalf("%v draw %d: error %v, engine %v", rung, i, err, eerr)
			}
			if err != nil {
				continue
			}
			c.draws++
			if a.Overloaded != e.Overloaded || a.BottleneckIndex != e.BottleneckIndex ||
				a.ThroughputLower != e.ThroughputLower || a.ThroughputUpper != e.ThroughputUpper {
				t.Fatalf("%v draw %d: overload/bottleneck/throughput %v/%d/%v/%v, engine %v/%d/%v/%v", rung, i,
					a.Overloaded, a.BottleneckIndex, a.ThroughputLower, a.ThroughputUpper,
					e.Overloaded, e.BottleneckIndex, e.ThroughputLower, e.ThroughputUpper)
			}
			checkFolded(t, fmt.Sprintf("%v draw %d", rung, i), p, a, e)
			steps := reportSteps(p, theta)
			for k := range a.Nodes {
				checkReportNode(t, &c, fmt.Sprintf("%v draw %d node %d", rung, i, k), rung, a, e, steps, k)
			}
		}
		want := reportCensuses[rung]
		got := c
		got.draws, got.skipped, got.worstDelay, got.worstBklg = 0, 0, 0, 0
		if got != want {
			t.Errorf("%v: census %+v, want %+v", rung, got, want)
		}
		if c.draws < 9500 {
			t.Errorf("%v: only %d draws checked", rung, c.draws)
		}
		t.Logf("%v: %d draws checked, %d skipped on an engine panic; AlphaIn above/below the engine at %d/%d points, DelayBound %d/%d nodes (worst +%.3g%%), BacklogBound %d/%d (worst +%.3g%%)",
			rung, c.draws, c.skipped, c.alphaHigh, c.alphaLow, c.delayHigh, c.delayLow, 100*c.worstDelay, c.backlogHigh, c.backlogLow, 100*c.worstBklg)
	}
}

// reportCensuses is what TestReportPassIsEnginePass counts, by rung. At
// blind every entry is the engine's error, on either side (its knots drift by
// up to absEps, and its far breakpoints carry rounding into the offsets), and
// the referees side with the scalars on each. At fifo the High entries add
// the majorant's rise over the engine's exact non-concave output: up to
// +6.32 % on a node's delay and +8.25 % on its backlog; each Low entry is
// the engine's error again, and the referees hold the scalars sound there.
var reportCensuses = map[Rung]reportCensus{
	RungBlind: {alphaHigh: 258, alphaLow: 603, delayHigh: 1, delayLow: 44, backlogHigh: 29, backlogLow: 61},
	RungFIFO:  {alphaHigh: 2503, alphaLow: 684, delayHigh: 122, delayLow: 49, backlogHigh: 641, backlogLow: 63},
}

// enginePassOrPanic is engineAnalyze's report pass, or whether it panicked.
func enginePassOrPanic(p Pipeline, theta []float64) (a *Analysis, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	a, err = engineAnalyze(p, theta, true)
	return a, err, false
}

// checkReportNode holds node k of the scalar report a against the engine's e
// and, where they disagree, against the referees.
func checkReportNode(t *testing.T, c *reportCensus, key string, rung Rung, a, e *Analysis, steps []reportStep, k int) {
	t.Helper()
	na, en, st := &a.Nodes[k], &e.Nodes[k], steps[k]
	if na.FIFOTheta != en.FIFOTheta || na.Overloaded != en.Overloaded || na.Aggregates != en.Aggregates {
		t.Fatalf("%s: θ/overload/aggregation %v/%v/%v, engine %v/%v/%v", key,
			na.FIFOTheta, na.Overloaded, na.Aggregates, en.FIFOTheta, en.Overloaded, en.Aggregates)
	}
	if d := na.CumulativeLatency - en.CumulativeLatency; d < -1 || d > 1 {
		t.Errorf("%s: cumulative latency %v, engine %v", key, na.CumulativeLatency, en.CumulativeLatency)
	}
	if k > 0 && !steps[k-1].overloaded {
		for _, x := range samplePoints(na.AlphaIn.Breakpoints(), en.AlphaIn.Breakpoints()) {
			got, eng := na.AlphaIn.Value(x), en.AlphaIn.Value(x)
			if near(got, eng, 1e-9, 1e-9) {
				continue
			}
			if got > eng {
				c.alphaHigh++
			} else {
				c.alphaLow++
			}
			exact, scale := exactOutput(steps[k-1], x)
			tol := 1e-9 * (1 + scale)
			if (rung == RungBlind && !near(got, exact, 0, tol)) || got < exact-tol {
				t.Errorf("%s: AlphaIn(%.12g) = %.12g, engine %.12g, exact %.12g", key, x, got, eng, exact)
			}
		}
	}
	if na.Overloaded {
		return
	}
	gotD, engD := na.DelayBound.Seconds(), en.DelayBound.Seconds()
	gotB, engB := float64(na.BacklogBound), float64(en.BacklogBound)
	delayOK, backlogOK := near(gotD, engD, 1e-9, 1e-9), near(gotB, engB, 1e-9, 0)
	if delayOK && backlogOK {
		return
	}
	if !delayOK {
		if gotD > engD {
			c.delayHigh++
			c.worstDelay = max(c.worstDelay, gotD/engD-1)
		} else {
			c.delayLow++
		}
	}
	if !backlogOK {
		if gotB > engB {
			c.backlogHigh++
			c.worstBklg = max(c.worstBklg, gotB/engB-1)
		} else {
			c.backlogLow++
		}
	}
	// The deviations of the node's own list against its member are exact.
	exactD, exactB := splitBound(st.in, splitChain{na.Beta}, 2*gotD+1e-6)
	if na.Aggregates {
		exactB += float64(na.JobIn)
	}
	if !withinChainTol(gotD, exactD, gotB, exactB) {
		t.Errorf("%s: delay %.12g s / backlog %.12g B, engine %.12g / %.12g, exact %.12g / %.12g",
			key, gotD, gotB, engD, engB, exactD, exactB)
	}
}

// checkFolded holds the folded chain's bounds of a to the engine's e: the
// delay within 1 ns + 1e-9 relative, the backlog within 1e-9 relative, and
// OutputBound at sample points, where a disagreement goes to exactOutput
// (the folded member has no jump, so the scalars are exact there).
func checkFolded(t *testing.T, key string, p Pipeline, a, e *Analysis) {
	t.Helper()
	if a.Overloaded {
		return
	}
	if !withinChainTol(a.DelayBound.Seconds(), e.DelayBound.Seconds(), float64(a.BacklogBound), float64(e.BacklogBound)) {
		t.Errorf("%s: folded delay %v / backlog %.12g B, engine %v / %.12g B", key,
			a.DelayBound, float64(a.BacklogBound), e.DelayBound, float64(e.BacklogBound))
	}
	st := reportStep{in: p.Arrival, maxRate: a.Gamma.UltimateSlope(), d: a.Beta.Latency(), s: a.Beta.UltimateSlope()}
	for _, x := range samplePoints(a.OutputBound.Breakpoints(), e.OutputBound.Breakpoints()) {
		got, eng := a.OutputBound.Value(x), e.OutputBound.Value(x)
		if exact, scale := exactOutput(st, x); !near(got, eng, 1e-9, 1e-9) && !near(got, exact, 0, 1e-9*(1+scale)) {
			t.Errorf("%s: OutputBound(%.12g) = %.12g, engine %.12g, exact %.12g", key, x, got, eng, exact)
		}
	}
}

// On seed-25 draws 4517 and 5587 the curve engine's report pass carried the
// arrival's last breakpoint out past 10⁵ s and read the ultimate offset back
// at t = 0 with absEps-sized rounding at every hop: its AlphaIn at the last
// node lay more than 1e-8 relative above the scalar propagation at fifo and
// tight. The report's AlphaIn is now that propagation: its ultimate affine
// part, times the gain, is Reservations' bucket at every node.
func TestReportAlphaInIsReservation(t *testing.T) {
	want := map[int]bool{4517: true, 5587: true}
	rng := rand.New(rand.NewSource(screenSeed))
	for trial := 0; len(want) > 0; trial++ {
		p := randomScreenPipeline(rng)
		if !want[trial] {
			continue
		}
		delete(want, trial)
		for _, r := range []Rung{RungFIFO, RungTight} {
			p.Rung = r
			a, err := Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Reservations(p)
			if err != nil {
				t.Fatal(err)
			}
			for k, na := range a.Nodes {
				rate, offset := na.AlphaIn.UltimateAffine()
				rate, offset = rate*na.GainBefore, max(0, offset)*na.GainBefore
				if !near(rate, float64(res[k].Rate), 1e-12, 0) || !near(offset, float64(res[k].Burst), 1e-9, 1e-9) {
					t.Errorf("%v draw %d node %d: AlphaIn's ultimate part %.17g B/s %.17g B, Reservations %.17g B/s %.17g B",
						r, trial, k, rate, offset, float64(res[k].Rate), float64(res[k].Burst))
				}
			}
		}
	}
}
