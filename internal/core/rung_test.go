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
// nodes, packetizers, and job aggregation — the general shape the
// prefix-sharing search must reproduce exactly.
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

// The tentpole differential: at matched budgets the prefix-sharing search
// must return a bit-identical winning θ-vector and delay bound to the
// pre-DP exhaustive enumeration, and its scored+pruned counters must cover
// the whole thinned lattice.
func TestTightMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		p := randomMixedPipeline(rng)
		for _, budget := range []int{16, 128} {
			dp, err1 := AnalyzeTightBudget(p, budget)
			ex, err2 := AnalyzeTightExhaustive(p, budget)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d budget %d: error mismatch: %v vs %v", trial, budget, err1, err2)
			}
			if err1 != nil {
				continue
			}
			for i := range dp.Nodes {
				if dp.Nodes[i].FIFOTheta != ex.Nodes[i].FIFOTheta {
					t.Fatalf("trial %d budget %d node %d: θ %v (dp) != %v (exhaustive)",
						trial, budget, i, dp.Nodes[i].FIFOTheta, ex.Nodes[i].FIFOTheta)
				}
			}
			if dp.DelayBound != ex.DelayBound || dp.DelayBoundInfinite != ex.DelayBoundInfinite {
				t.Fatalf("trial %d budget %d: delay %v/%v != %v/%v", trial, budget,
					dp.DelayBound, dp.DelayBoundInfinite, ex.DelayBound, ex.DelayBoundInfinite)
			}
			if dp.TightCombos+dp.TightPruned != ex.TightCombos {
				t.Fatalf("trial %d budget %d: lattice coverage %d+%d != %d",
					trial, budget, dp.TightCombos, dp.TightPruned, ex.TightCombos)
			}
		}
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
// every grid must stay strictly increasing (no near-equal duplicates
// silently multiplying the combo budget), and the reported combo count must
// match the grid product.
func TestTightGridsStrictlyIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		grids, combos, _, err := tightGrids(randomMixedPipeline(rng), 0)
		if err != nil {
			continue
		}
		prod := 1
		for i, g := range grids {
			for j := 1; j < len(g); j++ {
				if g[j] <= g[j-1] {
					t.Fatalf("trial %d node %d: grid not strictly increasing at %d: %v", trial, i, j, g)
				}
			}
			if len(g) > 0 {
				prod *= len(g)
			}
		}
		if prod != combos {
			t.Fatalf("trial %d: combos %d != grid product %d", trial, combos, prod)
		}
	}
}

// The search-effort counters feed telemetry: a tight analysis must stamp
// TightCombos/TightPruned and bump the process-wide totals.
func TestTightSearchCounters(t *testing.T) {
	p := Pipeline{
		Arrival: Arrival{Rate: 2, Burst: 1},
		Nodes: []Node{
			{Name: "a", Rate: 10, Latency: time.Second, JobIn: 1, JobOut: 1, CrossRate: 4, CrossBurst: 2},
			{Name: "b", Rate: 12, Latency: time.Second / 2, JobIn: 1, JobOut: 1, CrossRate: 3, CrossBurst: 1},
		},
	}
	c0, p0 := RungSearchStats()
	a, err := AnalyzeTightBudget(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, combos, _, err := tightGrids(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.TightCombos <= 0 || a.TightCombos+a.TightPruned != combos {
		t.Errorf("TightCombos=%d TightPruned=%d, want sum %d", a.TightCombos, a.TightPruned, combos)
	}
	c1, p1 := RungSearchStats()
	if c1-c0 != uint64(a.TightCombos) || p1-p0 != uint64(a.TightPruned) {
		t.Errorf("global counters moved by %d/%d, want %d/%d", c1-c0, p1-p0, a.TightCombos, a.TightPruned)
	}
	pb := p
	pb.Rung = RungBlind
	ab, err := Analyze(pb)
	if err != nil {
		t.Fatal(err)
	}
	if ab.TightCombos != 0 || ab.TightPruned != 0 {
		t.Errorf("blind analysis reported search effort: %d/%d", ab.TightCombos, ab.TightPruned)
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

// BenchmarkTightLattice times the prefix-sharing θ-lattice search (dp)
// against the exhaustive per-vector reference at matched lattice budgets on
// 2-6 cross nodes — the 64 budget forces grid thinning — and the search
// alone on 7-8 nodes, where the reference would take seconds. Each
// exhaustive case also checks that both return the same winning θ-vector
// and delay bound. combos (the lattice after thinning) and pruned are counts
// of one search and do not depend on the host; exhaustive ns/op over dp
// ns/op is the speedup.
func BenchmarkTightLattice(b *testing.B) {
	for n := 2; n <= 8; n++ {
		p := latticeBenchPipeline(n)
		budgets := []int{64, 2048, 65536}
		if n > 6 {
			budgets = budgets[2:]
		}
		for _, budget := range budgets {
			name := fmt.Sprintf("n=%d/budget=%d", n, budget)
			b.Run(name+"/dp", func(b *testing.B) {
				var a *Analysis
				for i := 0; i < b.N; i++ {
					var err error
					if a, err = AnalyzeTightBudget(p, budget); err != nil {
						b.Fatal(err)
					}
				}
				benchSink = a
				b.ReportMetric(float64(a.TightCombos+a.TightPruned), "combos")
				b.ReportMetric(float64(a.TightPruned), "pruned")
			})
			if n > 6 {
				continue
			}
			b.Run(name+"/exhaustive", func(b *testing.B) {
				dp, err := AnalyzeTightBudget(p, budget)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var ex *Analysis
				for i := 0; i < b.N; i++ {
					if ex, err = AnalyzeTightExhaustive(p, budget); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				benchSink = ex
				if ex.DelayBound != dp.DelayBound {
					b.Fatalf("delay bound %v (exhaustive) != %v (dp)", ex.DelayBound, dp.DelayBound)
				}
				for i := range ex.Nodes {
					if ex.Nodes[i].FIFOTheta != dp.Nodes[i].FIFOTheta {
						b.Fatalf("node %d: θ %v (exhaustive) != %v (dp)", i, ex.Nodes[i].FIFOTheta, dp.Nodes[i].FIFOTheta)
					}
				}
			})
		}
	}
}
