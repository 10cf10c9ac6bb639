package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"streamcalc/internal/curve"
	"streamcalc/internal/units"
)

func TestRungParseRoundTrip(t *testing.T) {
	for _, r := range Rungs() {
		got, err := ParseRung(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRung(%q) = %v, %v", r.String(), got, err)
		}
	}
	for _, s := range []string{"", "default"} {
		if got, err := ParseRung(s); err != nil || got != RungDefault {
			t.Errorf("ParseRung(%q) = %v, %v, want RungDefault", s, got, err)
		}
	}
	if _, err := ParseRung("bogus"); err == nil {
		t.Error("bogus rung accepted")
	}
	if RungDefault.Resolved() != RungBlind || RungDefault.String() != "blind" {
		t.Error("zero-value rung must resolve to blind")
	}
}

func TestPipelineDigestDistinguishesRungs(t *testing.T) {
	p := Pipeline{
		Arrival: Arrival{Rate: 2, Burst: 1},
		Nodes:   []Node{{Name: "s", Rate: 10, JobIn: 1, JobOut: 1, CrossRate: 4, CrossBurst: 2}},
	}
	blind, fifo, tight := p, p, p
	blind.Rung, fifo.Rung, tight.Rung = RungBlind, RungFIFO, RungTight
	if p.digest() != blind.digest() {
		t.Error("default and explicit blind must share a digest")
	}
	if p.digest() == fifo.digest() || fifo.digest() == tight.digest() {
		t.Error("distinct rungs must not share a digest (memo poisoning)")
	}
}

// randomCrossPipeline builds a stable 1-3 node chain where every node
// carries cross traffic, the shape the ladder exists for.
func randomCrossPipeline(rng *rand.Rand) Pipeline {
	n := 1 + rng.Intn(3)
	arrRate := units.Rate(1 + rng.Float64()*4)
	nodes := make([]Node, n)
	for i := range nodes {
		rate := arrRate.Mul(2 + rng.Float64()*4)
		cross := rate.Mul(0.2 + rng.Float64()*0.4) // residual stays above arrival
		nodes[i] = Node{
			Name: string(rune('a' + i)), Rate: rate,
			Latency: time.Duration(rng.Intn(2000)) * time.Millisecond,
			JobIn:   1, JobOut: 1,
			CrossRate: cross, CrossBurst: units.Bytes(rng.Float64() * 10),
		}
	}
	return Pipeline{
		Name:    "rung-fuzz",
		Arrival: Arrival{Rate: arrRate, Burst: units.Bytes(1 + rng.Float64()*5)},
		Nodes:   nodes,
	}
}

// The ladder property: delay bounds are monotone non-increasing up the
// ladder, and the chain service curve of every FIFO rung dominates the
// blind chain pointwise.
func TestRungLadderMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		p := randomCrossPipeline(rng)
		dBlind := RungDelayBound(p, RungBlind)
		dFIFO := RungDelayBound(p, RungFIFO)
		dTight := RungDelayBound(p, RungTight)
		eps := 1e-9 * (1 + dBlind)
		if dFIFO > dBlind+eps {
			t.Errorf("trial %d: fifo delay %v above blind %v", trial, dFIFO, dBlind)
		}
		if dTight > dFIFO+eps {
			t.Errorf("trial %d: tight delay %v above fifo %v", trial, dTight, dFIFO)
		}

		pb, pf, pt := p, p, p
		pb.Rung, pf.Rung, pt.Rung = RungBlind, RungFIFO, RungTight
		ab, err1 := Analyze(pb)
		af, err2 := Analyze(pf)
		at, err3 := Analyze(pt)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("trial %d: %v %v %v", trial, err1, err2, err3)
		}
		chainB := ab.ConcatenatedBeta()
		for name, a := range map[string]*Analysis{"fifo": af, "tight": at} {
			chain := a.ConcatenatedBeta()
			xs := append(chainB.Breakpoints(), chain.Breakpoints()...)
			last := xs[0]
			for _, x := range xs {
				if x > last {
					last = x
				}
			}
			xs = append(xs, last+1, last*2+5)
			for _, x := range xs {
				want := chainB.Value(x)
				if chain.Value(x) < want-1e-6*(1+want) {
					t.Fatalf("trial %d: %s chain below blind at t=%v: %v < %v",
						trial, name, x, chain.Value(x), want)
				}
			}
		}
	}
}

// A canonical shared node where the FIFO rungs are strictly tighter: blind
// pays the cross burst and latency amplified by the residual rate; the
// theta-shifted member pays only theta = the blind latency.
func TestRungStrictImprovement(t *testing.T) {
	p := Pipeline{
		Name:    "shared",
		Arrival: Arrival{Rate: 2, Burst: 1},
		Nodes: []Node{{
			Name: "s", Rate: 10, Latency: time.Second,
			JobIn: 1, JobOut: 1,
			CrossRate: 4, CrossBurst: 2,
		}},
	}
	dBlind := RungDelayBound(p, RungBlind)
	dFIFO := RungDelayBound(p, RungFIFO)
	dTight := RungDelayBound(p, RungTight)
	// Blind: residual RL(6, 2), delay 2 + 1/6. FIFO: θ₀ = T + b_c/R = 1.2
	// and θmax = 2, and the optimum's F is minimal at z = 0, where θ =
	// T + (b_c + b_a)/R = 1.3: the service right after θ exactly covers both
	// bursts, collapsing the delay bound to θ — the exact aggregate FIFO
	// bound for a single shared node.
	if math.Abs(dBlind-(2+1.0/6)) > 1e-9 {
		t.Errorf("blind delay = %v, want %v", dBlind, 2+1.0/6)
	}
	if math.Abs(dFIFO-1.3) > 1e-9 {
		t.Errorf("fifo delay = %v, want 1.3", dFIFO)
	}
	if dFIFO >= dBlind || dTight > dFIFO+1e-12 {
		t.Errorf("ladder not strictly improving: blind %v fifo %v tight %v", dBlind, dFIFO, dTight)
	}
	// The chosen theta is recorded for traces.
	pf := p
	pf.Rung = RungFIFO
	af, err := Analyze(pf)
	if err != nil {
		t.Fatal(err)
	}
	if af.Rung != RungFIFO || math.Abs(af.Nodes[0].FIFOTheta-1.3) > 1e-9 {
		t.Errorf("rung/theta not recorded: rung=%v theta=%v", af.Rung, af.Nodes[0].FIFOTheta)
	}
}

// Rungs only change cross-traffic handling: without cross nodes all three
// produce identical bounds (and the single-flow paper goldens stay put).
func TestRungNoCrossNoEffect(t *testing.T) {
	p := Pipeline{
		Arrival: Arrival{Rate: 4, Burst: 8, MaxPacket: 2},
		Nodes: []Node{
			{Name: "a", Rate: 10, Latency: time.Second, JobIn: 4, JobOut: 4, MaxPacket: 2},
			{Name: "b", Rate: 9, Latency: time.Second / 2, JobIn: 4, JobOut: 4, MaxPacket: 2},
		},
	}
	d := RungDelayBound(p, RungBlind)
	for _, r := range []Rung{RungFIFO, RungTight} {
		if got := RungDelayBound(p, r); math.Abs(got-d) > 1e-12 {
			t.Errorf("rung %v changed a cross-free pipeline: %v vs %v", r, got, d)
		}
	}
}

func TestRungDelayBoundOverloaded(t *testing.T) {
	p := Pipeline{
		Arrival: Arrival{Rate: 5, Burst: 1},
		Nodes:   []Node{{Name: "s", Rate: 10, JobIn: 1, JobOut: 1, CrossRate: 7, CrossBurst: 1}},
	}
	for _, r := range Rungs() {
		if got := RungDelayBound(p, r); !math.IsInf(got, 1) {
			t.Errorf("rung %v: overloaded flow must report +Inf, got %v", r, got)
		}
	}
}

// Analyses at different rungs must not collide in the Memo.
func TestMemoSeparatesRungs(t *testing.T) {
	m := NewMemo()
	p := Pipeline{
		Arrival: Arrival{Rate: 2, Burst: 1},
		Nodes:   []Node{{Name: "s", Rate: 10, Latency: time.Second, JobIn: 1, JobOut: 1, CrossRate: 4, CrossBurst: 2}},
	}
	pf := p
	pf.Rung = RungFIFO
	ab, err1 := AnalyzeMemo(p, m)
	af, err2 := AnalyzeMemo(pf, m)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if ab == af || af.Rung != RungFIFO || len(m.entries) != 2 {
		t.Errorf("rungs shared a memo entry: %d entries", len(m.entries))
	}
	if again, _ := AnalyzeMemo(pf, m); again != af {
		t.Error("a second AnalyzeMemo of the fifo pipeline missed its entry")
	}
	if curve.HDev(af.AlphaPrime, af.ConcatenatedBeta()) >= curve.HDev(ab.AlphaPrime, ab.ConcatenatedBeta()) {
		t.Error("fifo rung not tighter through the memo path")
	}
}

// randomMixedPipeline builds a 2-4 node chain mixing cross and cross-free
// nodes, packetizers, and job aggregation.
func randomMixedPipeline(rng *rand.Rand) Pipeline {
	n := 2 + rng.Intn(3)
	arrRate := units.Rate(1 + rng.Float64()*4)
	nodes := make([]Node, n)
	for i := range nodes {
		rate := arrRate.Mul(2 + rng.Float64()*4)
		nodes[i] = Node{
			Name: string(rune('a' + i)), Rate: rate,
			Latency: time.Duration(rng.Intn(2000)) * time.Millisecond,
			JobIn:   1, JobOut: 1,
		}
		if rng.Float64() < 0.75 {
			nodes[i].CrossRate = rate.Mul(0.2 + rng.Float64()*0.4)
			nodes[i].CrossBurst = units.Bytes(rng.Float64() * 10)
		}
		if rng.Float64() < 0.5 {
			nodes[i].MaxPacket = units.Bytes(1 + rng.Float64())
		}
		if rng.Float64() < 0.3 {
			nodes[i].JobIn, nodes[i].JobOut = 4, 4
		}
	}
	return Pipeline{
		Name:    "rung-mix",
		Arrival: Arrival{Rate: arrRate, Burst: units.Bytes(1 + rng.Float64()*5), MaxPacket: 1},
		Nodes:   nodes,
	}
}

// The ladder property on the mixed-shape pipelines: tight <= fifo <= blind.
func TestRungLadderMonotoneMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		p := randomMixedPipeline(rng)
		dBlind := RungDelayBound(p, RungBlind)
		dFIFO := RungDelayBound(p, RungFIFO)
		dTight := RungDelayBound(p, RungTight)
		eps := 1e-9 * (1 + dBlind)
		if dFIFO > dBlind+eps || dTight > dFIFO+eps {
			t.Errorf("trial %d: ladder not monotone: blind %v fifo %v tight %v",
				trial, dBlind, dFIFO, dTight)
		}
	}
}

// sweep is the per-node θ sweep of TestThetaOptimumBruteForce at cross hop h
// of a chain whose packetized arrival starts at a0 = α′(0⁺): 0, θ₀, θmax, the
// arrival-aware T + (b + a0)/Rf, where the service just covers both bursts,
// and 16 even steps of [0, θmax], all inside the capped box [0, θmax].
func sweep(h *hop, a0 float64) []float64 {
	tmax := (h.burst + h.full*h.latency) / float64(h.rate)
	out := []float64{0, tmax}
	for _, th := range []float64{h.theta0, h.latency + (h.burst+a0)/h.full} {
		if th <= tmax {
			out = append(out, th)
		}
	}
	for i := 1; i < 16; i++ {
		out = append(out, tmax*float64(i)/16)
	}
	return out
}

// bruteForce scores every vector of the per-node sweep lattice of p with
// ChainBound's evaluator and returns the best delay and Bound's delay at p's
// rung, both in seconds, and the lattice size; ok is false when p errors, is
// overloaded, or has no or more than three cross nodes.
func bruteForce(p Pipeline) (best, opt float64, vectors int, ok bool) {
	b, err := Bound(p)
	if err != nil || b.Overloaded {
		return 0, 0, 0, false
	}
	w := newWalk(p.Arrival)
	hops, knots := appendHops(nil, &w, p.Nodes), appendKnots(nil, p.Arrival)
	a0 := p.Arrival.envelopeAt(0) + float64(p.Arrival.MaxPacket)
	sweeps := make([][]float64, len(hops))
	cross := 0
	for i := range hops {
		if hops[i].cross > 0 {
			sweeps[i] = sweep(&hops[i], a0)
			cross++
		}
	}
	if cross == 0 || cross > 3 {
		return 0, 0, 0, false
	}
	best = math.Inf(1)
	theta := make([]float64, len(hops))
	var visit func(i int)
	visit = func(i int) {
		if i == len(hops) {
			d, _, _ := chainAt(hops, &p.Arrival, knots, false, theta, false)
			best = min(best, d)
			vectors++
			return
		}
		if sweeps[i] == nil {
			visit(i + 1)
			return
		}
		for _, th := range sweeps[i] {
			theta[i] = th
			visit(i + 1)
		}
	}
	visit(0)
	return best, b.Delay.Seconds(), vectors, true
}

// The capped optimum is the minimum over its box: on the seed-25 draws and on
// chains of one to three cross nodes, no vector of the per-node sweep lattice
// scores lower than Bound at fifo or tight, within 1 ns + 1e-9 relative (and
// Bounds.Delay's truncation to whole nanoseconds). Draws with more than three
// cross nodes are skipped to keep the lattice small.
func TestThetaOptimumBruteForce(t *testing.T) {
	var draws []Pipeline
	rng := rand.New(rand.NewSource(screenSeed))
	for trial := 0; trial < 10000; trial++ {
		draws = append(draws, randomScreenPipeline(rng))
	}
	rng = rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		draws = append(draws, randomCrossPipeline(rng))
	}
	var checked, vectors int
	for i, p := range draws {
		for _, r := range []Rung{RungFIFO, RungTight} {
			p.Rung = r
			best, opt, n, ok := bruteForce(p)
			if !ok {
				continue
			}
			checked++
			vectors += n
			if best < opt-1e-9-1e-9*opt {
				t.Errorf("draw %d %v: a swept vector scores %.12g s, the optimum %.12g s\npipeline %+v", i, r, best, opt, p)
			}
		}
	}
	if checked < 10000 {
		t.Errorf("only %d draws checked: the generator is off target", checked)
	}
	t.Logf("%d draws checked against %d swept vectors", checked, vectors)
}

// Less cross traffic never loosens a chosen vector: with the cross traffic at
// one node shrunk (rate and burst by a common U(0, 1) factor), the vector
// Bound chose before bounds the pipeline no worse than before, because a
// member at a fixed θ only gains when the cross traffic shrinks. That is what
// makes a stored vector a certificate. A fresh search need not follow: the cap θmax shrinks with the cross traffic, and
// where the optimum sat on the cap it may rise. Those rises are counted and
// logged, and fail the test only past isotoneCeiling.
func TestThetaOptimumIsotone(t *testing.T) {
	rng := rand.New(rand.NewSource(screenSeed))
	pick := rand.New(rand.NewSource(11)) // off the draws' stream
	const tol = 1e-9
	var checked, rises int
	worst := 0.0
	for trial := 0; trial < 10000; trial++ {
		p := randomScreenPipeline(rng)
		var crossAt []int
		for i, n := range p.Nodes {
			if n.CrossRate > 0 {
				crossAt = append(crossAt, i)
			}
		}
		if len(crossAt) == 0 {
			continue
		}
		less := p
		less.Nodes = append([]Node(nil), p.Nodes...)
		n := &less.Nodes[crossAt[pick.Intn(len(crossAt))]]
		u := pick.Float64()
		n.CrossRate, n.CrossBurst = n.CrossRate.Mul(u), n.CrossBurst.Mul(u)
		p.Rung, less.Rung = RungTight, RungTight
		before, err := Bound(p)
		if err != nil || before.Overloaded {
			continue
		}
		cert, err := BoundAt(less, before.FIFOTheta)
		if err != nil {
			t.Fatalf("trial %d: less cross traffic fails at the old vector: %v", trial, err)
		}
		if cert.Delay > before.Delay+time.Nanosecond+time.Duration(tol*float64(before.Delay)) {
			t.Errorf("trial %d: less cross traffic raised the bound at the old vector: %v -> %v", trial, before.Delay, cert.Delay)
		}
		after, err := Bound(less)
		if err != nil {
			t.Fatalf("trial %d: less cross traffic fails: %v", trial, err)
		}
		checked++
		if after.Delay > before.Delay+time.Nanosecond+time.Duration(tol*float64(before.Delay)) {
			rises++
			worst = max(worst, float64(after.Delay)/float64(before.Delay)-1)
		}
	}
	if checked < 5000 {
		t.Errorf("only %d draws checked: the generator is off target", checked)
	}
	t.Logf("%d draws checked; the fresh optimum rose on %d, by up to %.3g %%", checked, rises, 100*worst)
	if rises > isotoneCeiling {
		t.Errorf("the fresh optimum rose on %d draws, above the ceiling of %d", rises, isotoneCeiling)
	}
}

// isotoneCeiling is the most seed-25 draws on which TestThetaOptimumIsotone
// may see the fresh optimum rise under less cross traffic: the count the
// capped optimum reaches today (ROADMAP item 5: lifting the cap lowers it).
const isotoneCeiling = 184
