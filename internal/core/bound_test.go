package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"streamcalc/internal/curve"
	"streamcalc/internal/units"
)

// randomBoundPipeline draws a 1-5 node chain over every shape the node loop
// branches on: with and without cross traffic, gains other than 1,
// aggregating nodes, packetized and unpacketized arrivals and nodes,
// multi-bucket envelopes, and — about one draw in eight each — an arrival
// the chain cannot carry (overload) or a node its cross traffic starves.
func randomBoundPipeline(rng *rand.Rand) Pipeline {
	n := 1 + rng.Intn(5)
	arrRate := units.Rate(1 + rng.Float64()*4)
	overload, starve := rng.Intn(8) == 0, rng.Intn(8) == 0
	nodes := make([]Node, n)
	gain := 1.0
	for i := range nodes {
		// Rates are in local bytes: gain-scaled so the input-referred rate
		// stays 2-6x the arrival rate.
		rate := arrRate.Mul(gain * (2 + rng.Float64()*4))
		nd := Node{
			Name: string(rune('a' + i)), Rate: rate,
			Latency: time.Duration(rng.Intn(2000)) * time.Millisecond,
			JobIn:   1, JobOut: 1,
		}
		switch rng.Intn(4) {
		case 0: // aggregates: collects more than the upstream grain
			nd.JobIn, nd.JobOut = 8, 8
		case 1: // gain != 1
			nd.JobIn, nd.JobOut = 4, units.Bytes(1+rng.Intn(8))
		}
		if rng.Intn(3) > 0 {
			nd.CrossRate = rate.Mul(0.2 + rng.Float64()*0.4)
			nd.CrossBurst = units.Bytes(rng.Float64() * 10)
		}
		if rng.Intn(2) == 0 {
			nd.MaxPacket = units.Bytes(1 + rng.Float64())
		}
		if rng.Intn(4) == 0 {
			nd.MaxRate = rate.Mul(1.5)
		}
		gain *= nd.Gain()
		nodes[i] = nd
	}
	if overload {
		nodes[rng.Intn(n)].Rate = nodes[0].Rate.Mul(1e-3)
		for i := range nodes {
			nodes[i].CrossRate = nodes[i].CrossRate.Mul(1e-4)
		}
	}
	if starve {
		k := rng.Intn(n)
		nodes[k].CrossRate = nodes[k].Rate.Mul(1.5)
	}
	arr := Arrival{Rate: arrRate, Burst: units.Bytes(1 + rng.Float64()*5)}
	if rng.Intn(3) > 0 {
		arr.MaxPacket = 1
	}
	if rng.Intn(3) == 0 {
		arr.Extra = []Bucket{{Rate: arrRate.Mul(3), Burst: arr.Burst.Mul(0.25)}}
	}
	return Pipeline{Name: "bound-fuzz", Arrival: arr, Nodes: nodes}
}

// checkBounds holds b against what the full analysis a of the same pipeline
// promises: the delay and backlog of the curve engine's chain within the
// chain evaluator's tolerance (1 ns + 1e-9 relative, on top of Bounds.Delay's
// truncation to whole nanoseconds, and 1e-9 relative), everything else bit
// for bit. The expectation is spelled out here, so it stays an independent
// statement of the promise.
func checkBounds(t *testing.T, label string, b *Bounds, a *Analysis) {
	t.Helper()
	if a.Overloaded {
		if b.Delay != time.Duration(math.MaxInt64) || !math.IsInf(float64(b.Backlog), 1) {
			t.Errorf("%s: overloaded, yet delay %v backlog %v", label, b.Delay, float64(b.Backlog))
		}
	} else {
		chain := a.ConcatenatedBeta()
		wantDelay, wantBacklog := curve.HDev(a.AlphaPrime, chain), curve.VDev(a.AlphaPrime, chain)
		if !withinChainTol(b.Delay.Seconds(), wantDelay, float64(b.Backlog), wantBacklog) &&
			!withinChainTol((b.Delay+time.Nanosecond).Seconds(), wantDelay, float64(b.Backlog), wantBacklog) {
			t.Errorf("%s: delay %v backlog %v, full analysis %v s / %v", label, b.Delay, float64(b.Backlog), wantDelay, wantBacklog)
		}
	}
	if math.Float64bits(float64(b.Throughput)) != math.Float64bits(float64(a.ThroughputLower)) {
		t.Errorf("%s: throughput %v, full analysis %v", label, b.Throughput, a.ThroughputLower)
	}
	if b.Rung != a.Rung || b.Overloaded != a.Overloaded || b.BottleneckIndex != a.BottleneckIndex {
		t.Errorf("%s: rung/overloaded/bottleneck %v/%v/%d, full analysis %v/%v/%d", label,
			b.Rung, b.Overloaded, b.BottleneckIndex, a.Rung, a.Overloaded, a.BottleneckIndex)
	}
	if len(b.FIFOTheta) != len(a.Nodes) {
		t.Fatalf("%s: %d thetas for %d nodes", label, len(b.FIFOTheta), len(a.Nodes))
	}
	for i, na := range a.Nodes {
		if math.Float64bits(b.FIFOTheta[i]) != math.Float64bits(na.FIFOTheta) {
			t.Errorf("%s: node %d θ %v, full analysis %v", label, i, b.FIFOTheta[i], na.FIFOTheta)
		}
	}
}

// The chain pass skips work, never changes it: on every rung Bound returns
// what the full Analysis promises, and fails exactly when Analyze fails.
func TestBoundMatchesAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var overloaded, failed, innerTheta int
	for trial := 0; trial < 400; trial++ {
		p := randomBoundPipeline(rng)
		for _, r := range Rungs() {
			p.Rung = r
			a, errA := Analyze(p)
			b, errB := Bound(p)
			if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
				t.Fatalf("trial %d %v: Analyze error %v, Bound error %v", trial, r, errA, errB)
			}
			if errA != nil {
				failed++
				continue
			}
			checkBounds(t, p.Name+"/"+r.String(), b, a)
			if a.Overloaded {
				overloaded++
			}
			if r == RungFIFO {
				for _, th := range b.FIFOTheta[1:] {
					if th > 0 {
						innerTheta++ // a θ chosen past the first node
						break
					}
				}
			}
		}
		if t.Failed() {
			t.Fatalf("trial %d: pipeline %+v", trial, p)
		}
	}
	if overloaded == 0 || failed == 0 || innerTheta == 0 {
		t.Errorf("generator never drew an overloaded (%d), failing (%d) or inner-θ (%d) case",
			overloaded, failed, innerTheta)
	}
}

// The analysis timer fires once per computation — a chain pass or a full
// analysis — and never for a lookup the Memo already answers.
func TestAnalysisTimerCountsComputations(t *testing.T) {
	var fired int
	defer SetAnalysisTimer(SetAnalysisTimer(func(float64) { fired++ }))
	p := randomMixedPipeline(rand.New(rand.NewSource(18)))
	p.Rung = RungTight
	step := func(what string, want int, f func()) {
		t.Helper()
		fired = 0
		f()
		if fired != want {
			t.Errorf("%s: timer fired %d times, want %d", what, fired, want)
		}
	}
	m := NewMemo()
	step("AnalyzeMemo, miss", 1, func() { AnalyzeMemo(p, m) })
	step("AnalyzeMemo, hit", 0, func() { AnalyzeMemo(p, m) })
	step("Analyze and Bound", 2, func() { Analyze(p); Bound(p) })
}

// The seconds-to-Duration conversion behind Bounds.Delay saturates instead
// of wrapping: from 1 B/s to 100 GB/s and from nanoseconds to far beyond
// the 292 years a Duration holds, the promised delay is never negative and
// never below the burst's own drain time.
func TestBoundDelaySaturates(t *testing.T) {
	for _, rate := range []float64{1, 1e3, 1e6, 1e9, 1e11} { // node rate, B/s
		prev := time.Duration(0)
		for _, drain := range []float64{1e-9, 1e-6, 1e-3, 1, 1e3, 1e6, 9e9, 1e10, 1e13, 1e18} { // burst / rate, s
			p := Pipeline{
				Arrival: Arrival{Rate: units.Rate(rate / 10), Burst: units.Bytes(rate * drain)},
				Nodes:   []Node{{Name: "s", Rate: units.Rate(rate), Latency: time.Millisecond, JobIn: 1, JobOut: 1}},
			}
			b, err := Bound(p)
			if err != nil {
				t.Fatalf("rate %g drain %g: %v", rate, drain, err)
			}
			if b.Delay < dur(drain) || b.Delay < prev {
				t.Errorf("rate %g B/s, burst drains in %g s: delay bound %v (previous %v)", rate, drain, b.Delay, prev)
			}
			if drain > 9.3e9 && b.Delay != time.Duration(math.MaxInt64) {
				t.Errorf("rate %g B/s, burst drains in %g s: delay bound %v, want saturation", rate, drain, b.Delay)
			}
			prev = b.Delay
		}
	}
}

// BoundAt at the vector a search committed to reproduces that search's
// Bounds field for field: the certificate a class stores is the bound it was admitted with.
// Draws where Bound errors or panics are skipped; the panic census of
// TestScreenDominatesBound owns those.
func TestBoundAtCommittedVectorIsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(screenSeed))
	const trials = 5000
	var compared int
	for trial := 0; trial < trials; trial++ {
		p := randomScreenPipeline(rng)
		for _, r := range []Rung{RungFIFO, RungTight} {
			p.Rung = r
			b, err, panicked := boundOrPanic(p)
			if err != nil || panicked != "" {
				continue
			}
			at, err := BoundAt(p, b.FIFOTheta)
			if err != nil {
				t.Fatalf("trial %d %v: BoundAt at the committed vector: %v\npipeline %+v", trial, r, err, p)
			}
			if !reflect.DeepEqual(*at, *b) {
				t.Fatalf("trial %d %v: BoundAt = %+v, Bound = %+v\npipeline %+v", trial, r, *at, *b, p)
			}
			compared++
		}
	}
	if compared < trials {
		t.Errorf("compared %d of %d draws: the generator is off target", compared, 2*trials)
	}
}

// A vector of the wrong length is an error, not a panic.
func TestBoundAtVectorLength(t *testing.T) {
	p := Pipeline{
		Arrival: Arrival{Rate: 1e3, Burst: 1e3},
		Nodes:   []Node{{Name: "s", Rate: 1e4, JobIn: 1, JobOut: 1, CrossRate: 1e3, CrossBurst: 1e3}},
	}
	if _, err := BoundAt(p, nil); err == nil {
		t.Error("BoundAt with no vector succeeded")
	}
}

var benchSink any

// BenchmarkBound prices an admission check (Bound: the chain pass) against
// the full report (Analyze) on a 3-node path where every node carries cross
// traffic — the shape of a victim check — at each rung.
func BenchmarkBound(b *testing.B) {
	p := Pipeline{
		Name:    "bench",
		Arrival: Arrival{Rate: 10 * units.MiBPerSec, Burst: 64 * units.KiB, MaxPacket: 4 * units.KiB},
	}
	for i, rate := range []units.Rate{200 * units.MiBPerSec, 50 * units.MiBPerSec, 120 * units.MiBPerSec} {
		p.Nodes = append(p.Nodes, Node{
			Name: string(rune('a' + i)), Rate: rate, Latency: time.Duration(200*(i+1)) * time.Microsecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB,
			CrossRate: rate.Mul(0.4), CrossBurst: 256 * units.KiB,
		})
	}
	for _, r := range Rungs() {
		p.Rung = r
		b.Run("chain/"+r.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := Bound(p)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
		b.Run("analyze/"+r.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := Analyze(p)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = v
			}
		})
	}
}
