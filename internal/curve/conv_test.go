package curve

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestConvolveRateLatencyConcatenation(t *testing.T) {
	// Classic: beta_{R1,T1} conv beta_{R2,T2} = beta_{min(R1,R2), T1+T2}.
	b1 := RateLatency(4, 3)
	b2 := RateLatency(7, 2)
	got := Convolve(b1, b2)
	want := RateLatency(4, 5)
	if !got.Equal(want) {
		t.Errorf("concatenation = %v, want %v", got, want)
	}
}

func TestConvolveConcaveIsMin(t *testing.T) {
	a1 := Affine(1, 10)
	a2 := Affine(3, 2)
	got := Convolve(a1, a2)
	want := Min(a1, a2)
	if !got.Equal(want) {
		t.Errorf("concave conv = %v, want %v", got, want)
	}
}

func TestConvolveWithZero(t *testing.T) {
	a := Affine(2, 5)
	got := Convolve(a, Zero())
	if !got.Equal(Zero()) {
		t.Errorf("conv with zero = %v", got)
	}
}

func TestConvolveCommutes(t *testing.T) {
	b1 := RateLatency(4, 3)
	b2 := RateLatency(7, 2)
	if !Convolve(b1, b2).Equal(Convolve(b2, b1)) {
		t.Error("convolution must commute")
	}
	a1 := Affine(1, 10)
	a2 := Affine(3, 2)
	if !Convolve(a1, a2).Equal(Convolve(a2, a1)) {
		t.Error("concave convolution must commute")
	}
}

func TestConvolveConvexThreeSegments(t *testing.T) {
	// Convex curve: 0 until 1, slope 2 until 3, then slope 5.
	c1 := New(0, []Segment{{0, 0, 0}, {1, 0, 2}, {3, 4, 5}})
	c2 := RateLatency(3, 2)
	got := Convolve(c1, c2)
	// Slope-merge: latencies add (slope-0 pieces of length 1 and 2), then
	// slope 2 for length 2 (from c1), then slope 3 forever (min ultimate).
	want := New(0, []Segment{{0, 0, 0}, {3, 0, 2}, {5, 4, 3}})
	if !got.Equal(want) {
		t.Errorf("convex conv = %v, want %v", got, want)
	}
	// Cross-check against brute force at sample points.
	checkConvBrute(t, c1, c2, got, 12)
}

// checkConvBrute verifies got(t) ~= inf_s f(s)+g(t-s) on a fine grid. The
// grid infimum over-estimates the true infimum by at most one grid step of
// slope, so the check is asymmetric: got must never exceed the grid value,
// and must be within grid slack below it.
func checkConvBrute(t *testing.T, f, g, got Curve, horizon float64) {
	t.Helper()
	const n = 400
	slack := (f.UltimateSlope() + g.UltimateSlope()) * horizon / n * 2
	for i := 0; i <= n; i++ {
		x := horizon * float64(i) / float64(n)
		best := math.Inf(1)
		for j := 0; j <= n; j++ {
			s := x * float64(j) / float64(n)
			if v := f.Value(s) + g.Value(x-s); v < best {
				best = v
			}
		}
		if v := f.AtZero() + g.Value(x); v < best {
			best = v
		}
		if v := f.Value(x) + g.AtZero(); v < best {
			best = v
		}
		gv := got.Value(x)
		if gv > best+1e-6*(1+math.Abs(best)) {
			t.Fatalf("conv above brute at t=%g: exact=%g brute=%g", x, gv, best)
		}
		if gv < best-slack-1e-9 {
			t.Fatalf("conv far below brute at t=%g: exact=%g brute=%g", x, gv, best)
		}
	}
}

// Property: exact convex convolution matches brute force for random
// rate-latency pairs.
func TestConvolveConvexMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 25; k++ {
		b1 := RateLatency(0.5+5*rng.Float64(), 4*rng.Float64())
		b2 := RateLatency(0.5+5*rng.Float64(), 4*rng.Float64())
		got := Convolve(b1, b2)
		checkConvBrute(t, b1, b2, got, 15)
	}
}

// Property: exact concave convolution matches brute force for random
// leaky-bucket pairs.
func TestConvolveConcaveMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 25; k++ {
		a1 := Affine(0.5+5*rng.Float64(), 10*rng.Float64())
		a2 := Affine(0.5+5*rng.Float64(), 10*rng.Float64())
		got := Convolve(a1, a2)
		checkConvBrute(t, a1, a2, got, 15)
	}
}

func TestConvolveMixedFallsBackToSampled(t *testing.T) {
	// Concave (with burst) conv convex (rate-latency): no closed form in our
	// fast paths; sampled result must still match brute force at grid points.
	a := Affine(2, 6)
	b := RateLatency(3, 2)
	got := Convolve(a, b)
	checkConvBrute(t, a, b, got, 10)
	// Hand values: since a(0)=0, the split s=0 caps the convolution at
	// b(t); for t in [2,8] the infimum is exactly b(t) = 3(t-2).
	approx(t, got.Value(1), 0, 1e-3, "inside latency")
	approx(t, got.Value(4), 6, 0.05, "service-limited region")
}

func TestConvolveSampledMonotone(t *testing.T) {
	a := Affine(2, 6)
	b := RateLatency(3, 2)
	c := ConvolveSampled(a, b, 20, 200)
	prev := -1.0
	for i := 0; i <= 200; i++ {
		x := 20 * float64(i) / 200
		v := c.Value(x)
		if v < prev-1e-9 {
			t.Fatalf("sampled convolution not monotone at %g", x)
		}
		prev = v
	}
}

func TestConvolveAll(t *testing.T) {
	chain := []Curve{RateLatency(4, 1), RateLatency(9, 2), RateLatency(6, 0.5)}
	got := ConvolveAll(chain)
	want := RateLatency(4, 3.5)
	if !got.Equal(want) {
		t.Errorf("chain = %v, want %v", got, want)
	}
}

func TestConvolveAllPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ConvolveAll(nil)
}

func TestMaxPlusConvolveConvex(t *testing.T) {
	b1 := RateLatency(2, 1)
	b2 := RateLatency(5, 3)
	got := MaxPlusConvolve(b1, b2)
	want := Max(b1, b2)
	if !got.Equal(want) {
		t.Errorf("max-plus conv = %v, want %v", got, want)
	}
}

func TestMaxPlusConvolveBrute(t *testing.T) {
	f := Affine(2, 3) // not convex -> sampled path
	g := RateLatency(4, 1)
	got := MaxPlusConvolve(f, g)
	const n = 200
	horizon := 8.0
	for i := 0; i <= n; i++ {
		x := horizon * float64(i) / float64(n)
		best := math.Inf(-1)
		for j := 0; j <= n; j++ {
			s := x * float64(j) / float64(n)
			if v := f.Value(s) + g.Value(x-s); v > best {
				best = v
			}
		}
		gv := got.Value(x)
		if gv < best-0.15 { // sampled curve may be slightly conservative
			t.Fatalf("max-plus too low at %g: %g < %g", x, gv, best)
		}
	}
}

// Property-based: convolution is dominated by both operands shifted
// appropriately — in particular (f conv g)(t) <= f(t) + g(0+) and
// (f conv g) is monotone.
func TestConvolveUpperBoundProperty(t *testing.T) {
	f := func(r1, b1, r2, t2 uint8) bool {
		a := Affine(float64(r1%10)+0.5, float64(b1%20))
		b := RateLatency(float64(r2%10)+0.5, float64(t2%5))
		c := Convolve(a, b)
		for _, x := range []float64{0, 0.5, 1, 2, 5, 10, 50} {
			if c.Value(x) > a.Value(x)+b.Burst()+1e-6 {
				return false
			}
			if c.Value(x) > b.Value(x)+a.AtZero()+a.Burst()+1e-6 {
				// conv <= g(t) + f(0+) as s->0+ splits
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The mixed concave ⊗ rate-latency closed form must agree with brute force.
func TestConvolveConcaveRateLatencyClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 25; k++ {
		a := Min(Affine(0.5+4*rng.Float64(), 10*rng.Float64()), Affine(0.2+rng.Float64(), 3+10*rng.Float64()))
		b := RateLatency(0.5+5*rng.Float64(), 4*rng.Float64())
		got := Convolve(a, b)
		checkConvBrute(t, a, b, got, 15)
		// Symmetric order.
		got2 := Convolve(b, a)
		if !got.Equal(got2) {
			t.Fatal("mixed convolution must commute")
		}
	}
}

func TestDelayedConcaveDetection(t *testing.T) {
	cases := []struct {
		name string
		c    Curve
		T    float64
		ok   bool
	}{
		{"rate-latency", RateLatency(4, 3), 3, true},
		{"line", Line(5), 0, true},
		{"leaky bucket", Affine(1, 2), 0, true},
		{"delayed leaky bucket", ShiftRight(Affine(1, 2), 0.5), 0.5, true},
		{"jump then two slopes", New(0, []Segment{{0, 0, 0}, {1, 3, 4}, {2, 7, 1}}), 1, true},
		{"multi-slope convex", New(0, []Segment{{0, 0, 0}, {1, 0, 2}, {3, 4, 5}}), 0, false},
		{"positive at the origin", New(1, []Segment{{0, 1, 1}}), 0, false},
		{"staircase", Staircase(1, 1, 3), 0, false},
	}
	for _, tc := range cases {
		T, cc, ok := delayedConcave(tc.c)
		if ok != tc.ok || (ok && T != tc.T) {
			t.Errorf("%s: T=%g ok=%v, want T=%g ok=%v", tc.name, T, ok, tc.T, tc.ok)
			continue
		}
		if ok && (cc.AtZero() != 0 || cc.segs[0].X != 0) {
			t.Errorf("%s: concave part %v does not start at the origin", tc.name, cc)
		}
	}
}

// convInf is the exact (f ⊗ g)(t) of piecewise-linear curves: f(s)+g(t−s)
// is piecewise linear in s with kinks where s is a breakpoint of f or t−s
// one of g, so its infimum is taken at 0, t or a kink, as a value or as the
// limit from either side.
func convInf(f, g Curve, t float64) float64 {
	type split struct{ s, r float64 }
	splits := []split{{0, t}, {t, 0}}
	for _, x := range f.Breakpoints() {
		if x <= t {
			splits = append(splits, split{x, t - x})
		}
	}
	for _, x := range g.Breakpoints() {
		if x <= t {
			splits = append(splits, split{t - x, x})
		}
	}
	best := math.Inf(1)
	for _, sp := range splits {
		s, r := sp.s, sp.r
		if s < 0 || r < 0 {
			continue
		}
		best = math.Min(best, f.Value(s)+g.Value(r))
		if s > 0 {
			best = math.Min(best, f.ValueLeft(s)+g.ValueRight(r))
		}
		if r > 0 {
			best = math.Min(best, f.ValueRight(s)+g.ValueLeft(r))
		}
	}
	return best
}

// A 0.26 µs latency convolved with a 292 s one: the true f ⊗ g is zero until
// 292.52785816733 s, then 505.13 B + 559.9 B/s. ConvolveExact's candidate
// dedupe at absEps(292 s) swallows the short latency and answers 1 515 B just
// past the knee — a service curve above the true one, so an optimistic bound.
// Both operands are delayed concave curves, so Convolve takes the closed form.
func TestConvolveLargeOffsetShortLatency(t *testing.T) {
	f := New(0, []Segment{{0, 0, 0}, {292.5278579099099, 505.12732421199394, 559.9110240690597}})
	g := New(0, []Segment{{0, 0, 0}, {2.574144058441988e-7, 2077.828095343544, 2.9931502067254086e9}})
	at := 292.52785833608544
	want := convInf(f, g, at)
	if got := Convolve(f, g).Value(at); got > want*(1+1e-9) {
		t.Errorf("(f ⊗ g)(%v) = %v, above the exact %v", at, got, want)
	}
	approx(t, want, 505.12732421199394+559.9110240690597*(at-292.5278579099099-2.574144058441988e-7), 1e-9, "exact value")
}

// Property: on random pairs of delayed concave curves — 1-3 pieces each,
// delays of 0 or 1 ns-10 s, rates from B/s to GB/s — Convolve never panics
// and matches the exact infimum over split points, to within what the time
// axis resolves at that offset.
func TestConvolveDelayedConcaveMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	operand := func() Curve {
		var segs []Segment
		T := 0.0
		if rng.Intn(4) > 0 {
			T = logU(1e-9, 10)
			segs = append(segs, Segment{0, 0, 0})
		}
		x, y, rate := T, 0.0, logU(1, 1e9)
		if rng.Intn(2) == 0 {
			y = logU(1, 1e7) // a jump at T
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			segs = append(segs, Segment{x, y, rate})
			d := logU(1e-6, 10)
			x, y, rate = x+d, y+rate*d, rate*logU(1e-3, 1)
		}
		return New(0, segs)
	}
	const pairs = 2000
	for k := 0; k < pairs; k++ {
		f, g := operand(), operand()
		got := Convolve(f, g)
		xs := got.Breakpoints()
		for _, a := range f.Breakpoints() {
			for _, b := range g.Breakpoints() {
				xs = append(xs, a+b)
			}
		}
		sort.Float64s(xs)
		last := xs[len(xs)-1]
		xs = append(xs, 2*last+10)
		slope := 0.0
		for _, s := range append(f.Segments(), g.Segments()...) {
			slope = math.Max(slope, s.Slope)
		}
		for i := 0; i+1 < len(xs); i++ {
			u, v := xs[i], xs[i+1]
			if v-u <= 4*absEps(u) {
				continue // narrower than the time axis resolves here
			}
			for _, at := range []float64{u + (v-u)/3, u + 2*(v-u)/3} {
				want := convInf(f, g, at)
				tol := 1e-9*(1+want) + slope*4*absEps(at)
				if d := got.Value(at) - want; math.Abs(d) > tol {
					t.Fatalf("pair %d: (f ⊗ g)(%v) = %v, exact %v\nf = %v\ng = %v\ngot %v", k, at, got.Value(at), want, f, g, got)
				}
			}
		}
	}
}

// Convolve counts every call as convolve, and the calls its closed forms
// hand to ConvolveExact also as convolve_exact.
func TestConvolveExactFallbackCounted(t *testing.T) {
	var counts [NumOpKinds]int
	defer SetOpCounter(SetOpCounter(func(op OpKind) { counts[op]++ }))
	Convolve(RateLatency(100, 1), RateLatency(50, 2)) // both convex
	Convolve(Affine(10, 5), RateLatency(50, 2))       // delayed concave
	Convolve(Staircase(10, 1, 3), RateLatency(50, 2)) // neither
	if counts[opConv] != 3 || counts[opConvExact] != 1 {
		t.Errorf("convolve %d, convolve_exact %d; want 3 and 1", counts[opConv], counts[opConvExact])
	}
	if got := opConvExact.String(); got != "convolve_exact" {
		t.Errorf("label %q", got)
	}
}
