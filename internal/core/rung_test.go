package core

import (
	"errors"
	"fmt"
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
	// Blind: residual RL(6, 2), delay 2 + 1/6. FIFO at the arrival-aware
	// theta* = T + (b_c + b_a)/R = 1.3: the service right after theta*
	// exactly covers both bursts, collapsing the delay bound to theta* —
	// the exact aggregate FIFO bound for a single shared node.
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
	if _, misses, entries := m.Stats(); misses != 2 || entries != 2 {
		t.Errorf("rungs shared a memo entry: misses=%d entries=%d", misses, entries)
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

// Regression for the best-selection bug: an errored vector must be skipped,
// not abort the sweep; only an all-errored sweep fails.
func TestBestIndexSkipsErrors(t *testing.T) {
	boom := errors.New("boom")
	if got := bestIndex([]float64{0, 5, 3, 4}, []error{boom, nil, nil, nil}); got != 2 {
		t.Errorf("bestIndex = %d, want 2 (errored index 0 must be skipped, not returned)", got)
	}
	if got := bestIndex([]float64{1, 2}, []error{boom, boom}); got != -1 {
		t.Errorf("bestIndex = %d, want -1 when every vector errored", got)
	}
	if got := bestIndex([]float64{7, 3, 3}, make([]error, 3)); got != 1 {
		t.Errorf("bestIndex = %d, want 1 (ties keep the lowest index)", got)
	}
}

// Regression for the duplicate-θ grid bug: after the arrival-aware insert
// every grid must stay strictly increasing (no near-equal duplicates for the
// search to score twice), and start at θ = 0, the blind residual.
func TestTightGridsStrictlyIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		grids, _, err := tightGrids(randomMixedPipeline(rng))
		if err != nil {
			continue
		}
		for i, g := range grids {
			if len(g) > 0 && g[0] != 0 {
				t.Fatalf("trial %d node %d: grid does not start at 0: %v", trial, i, g)
			}
			for j := 1; j < len(g); j++ {
				if g[j] <= g[j-1] {
					t.Fatalf("trial %d node %d: grid not strictly increasing at %d: %v", trial, i, j, g)
				}
			}
		}
	}
}

// latticeBenchPipeline is an n-node chain where every node carries cross
// traffic with its own rate, latency and burst, so each node contributes a
// full θ grid and the lattice grows with n.
func latticeBenchPipeline(n int) Pipeline {
	nodes := make([]Node, n)
	for i := range nodes {
		rate := units.Rate(100e6 + 10e6*float64(i))
		nodes[i] = Node{
			Name:    fmt.Sprintf("x%d", i),
			Rate:    rate,
			Latency: time.Duration(20+10*i) * time.Millisecond,
			JobIn:   1500, JobOut: 1500, MaxPacket: 1500,
			CrossRate:  rate.Mul(0.35 + 0.05*float64(i%3)),
			CrossBurst: units.Bytes(2e6 + 5e5*float64(i)),
		}
	}
	return Pipeline{
		Name:    "rung-bench",
		Arrival: Arrival{Rate: 5e6, Burst: 4e6, MaxPacket: 1500},
		Nodes:   nodes,
		Rung:    RungTight,
	}
}

// tightAgainstReference returns, in seconds, the chain delay of the tight
// rung's descent and of the exhaustive lattice reference on p, or ok false
// when either errors, panics or is overloaded.
func tightAgainstReference(p Pipeline) (descent, ref float64, combos int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	p.Rung = RungTight
	a, err := Analyze(p)
	if err != nil || a.Overloaded {
		return 0, 0, 0, false
	}
	ex, err := AnalyzeTightExhaustive(p)
	if err != nil {
		return 0, 0, 0, false
	}
	_, descent = a.chainDelay()
	_, ref = ex.chainDelay()
	return descent, ref, a.TightCombos, true
}

// The descent's guarantees on the seed-25 draws: never above the fifo rung
// (it starts at the greedy vector and only accepts improvements), and within
// a hair of the exhaustive lattice minimum over the same grids: at most
// (1+1e-9)× on 99 % of the draws and never more than 1 % above it. A local
// search may beat the reference, which scores only grid vectors, by keeping
// the off-grid greedy θ at some nodes.
func TestTightDescentAgainstExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(screenSeed))
	const trials = 10000
	var answered, close int
	for trial := 0; trial < trials; trial++ {
		p := randomScreenPipeline(rng)
		p.Rung = RungFIFO
		fifo, err, panicked := boundOrPanic(p)
		if err != nil || panicked != "" {
			continue
		}
		p.Rung = RungTight
		tight, err, panicked := boundOrPanic(p)
		if err != nil || panicked != "" {
			continue
		}
		if tight.Delay > fifo.Delay {
			t.Fatalf("trial %d: tight delay %v above fifo %v\npipeline %+v", trial, tight.Delay, fifo.Delay, p)
		}
		d, ref, _, ok := tightAgainstReference(p)
		if !ok {
			continue
		}
		answered++
		if d > ref*1.01 {
			t.Fatalf("trial %d: descent %v more than 1%% above the lattice minimum %v\npipeline %+v", trial, d, ref, p)
		}
		if d <= ref*(1+1e-9) {
			close++
		}
	}
	if answered < trials/2 {
		t.Fatalf("only %d of %d draws answered: the generator is off target", answered, trials)
	}
	if close*100 < answered*99 {
		t.Errorf("descent within 1e-9 of the lattice minimum on %d of %d draws, want ≥ 99 %%", close, answered)
	}
}

// On chains of up to six cross nodes the descent finds the lattice minimum,
// and scores fewer vectors than the lattice holds from three nodes on.
func TestTightDescentMatchesExhaustiveOnChains(t *testing.T) {
	for n := 2; n <= 6; n++ {
		p := latticeBenchPipeline(n)
		d, ref, combos, ok := tightAgainstReference(p)
		if !ok {
			t.Fatalf("n=%d: no answer", n)
		}
		if math.Abs(d-ref) > 1e-9*ref {
			t.Errorf("n=%d: descent %v, lattice minimum %v", n, d, ref)
		}
		grids, _, err := tightGrids(p)
		if err != nil {
			t.Fatal(err)
		}
		lattice := 1
		for _, g := range grids {
			lattice *= len(g)
		}
		if combos <= 0 || (n >= 3 && combos >= lattice) {
			t.Errorf("n=%d: scored %d vectors of a %d-vector lattice", n, combos, lattice)
		}
	}
	pb := latticeBenchPipeline(3)
	pb.Rung = RungBlind
	if a, err := Analyze(pb); err != nil || a.TightCombos != 0 {
		t.Errorf("blind analysis reported search effort: %v, %v", a, err)
	}
}
