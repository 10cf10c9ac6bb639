package curve

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsInf(want, 1) {
		if !math.IsInf(got, 1) {
			t.Errorf("%s: got %v, want +Inf", msg, got)
		}
		return
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestAffineValues(t *testing.T) {
	a := Affine(2, 5) // alpha(t) = 2t+5 for t>0
	if v := a.Value(0); v != 0 {
		t.Errorf("alpha(0) = %v, want 0", v)
	}
	approx(t, a.Value(3), 11, 1e-12, "alpha(3)")
	approx(t, a.Burst(), 5, 1e-12, "burst")
	approx(t, a.UltimateSlope(), 2, 1e-12, "rate")
	if !a.IsConcave() {
		t.Error("leaky bucket must be concave")
	}
	if a.IsConvex() {
		t.Error("leaky bucket with burst is not convex")
	}
	if a.Value(-1) != 0 {
		t.Error("negative time must give 0")
	}
}

func TestRateLatencyValues(t *testing.T) {
	b := RateLatency(4, 3)
	approx(t, b.Value(0), 0, 0, "beta(0)")
	approx(t, b.Value(3), 0, 0, "beta(T)")
	approx(t, b.Value(5), 8, 1e-12, "beta(5)")
	approx(t, b.Latency(), 3, 1e-12, "latency")
	if !b.IsConvex() {
		t.Error("rate-latency must be convex")
	}
	if b.IsConcave() {
		t.Error("rate-latency with T>0 is not concave")
	}
	// Zero latency degenerates to a line.
	l := RateLatency(4, 0)
	approx(t, l.Value(2), 8, 1e-12, "line value")
	if !l.IsConcave() || !l.IsConvex() {
		t.Error("a line is both concave and convex")
	}
}

func TestZeroAndConstant(t *testing.T) {
	z := Zero()
	approx(t, z.Value(10), 0, 0, "zero")
	if z.Latency() != math.Inf(1) {
		t.Errorf("zero latency = %v", z.Latency())
	}
	c := Constant(7)
	approx(t, c.Value(0), 0, 0, "const at 0")
	approx(t, c.Value(0.001), 7, 1e-12, "const at 0+")
	approx(t, c.ValueRight(0), 7, 1e-12, "right limit at 0")
	approx(t, c.ValueLeft(5), 7, 1e-12, "left limit")
}

func TestStep(t *testing.T) {
	s := Step(10, 4)
	approx(t, s.Value(3.999), 0, 0, "before step")
	approx(t, s.Value(4), 10, 0, "at step (right-continuous)")
	approx(t, s.ValueLeft(4), 0, 0, "left limit at step")
	approx(t, s.Value(100), 10, 0, "after")
	s0 := Step(3, 0)
	approx(t, s0.Value(1), 3, 0, "step at 0 = constant")
}

func TestStaircase(t *testing.T) {
	sc := Staircase(100, 2, 3)
	approx(t, sc.Value(0), 0, 0, "s(0)")
	approx(t, sc.Value(0.5), 100, 0, "first packet")
	approx(t, sc.Value(2), 200, 0, "second packet at breakpoint")
	approx(t, sc.Value(3.9), 200, 0, "still second")
	approx(t, sc.Value(4), 300, 0, "third")
	approx(t, sc.UltimateSlope(), 50, 1e-12, "average slope")
	// After n steps, the curve follows the average rate.
	approx(t, sc.Value(8), 400+50*(8-6), 1e-9, "ray")
}

func TestStaircasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Staircase(0, 1, 3)
}

func TestFromPoints(t *testing.T) {
	c := FromPoints([]float64{0, 2, 5}, []float64{0, 4, 10}, 3)
	approx(t, c.Value(1), 2, 1e-12, "interp 1")
	approx(t, c.Value(3.5), 7, 1e-12, "interp 2")
	approx(t, c.Value(7), 16, 1e-12, "final ray")
}

func TestLatencyOfJump(t *testing.T) {
	s := Step(5, 2)
	approx(t, s.Latency(), 2, 1e-12, "step latency")
	a := Affine(1, 1)
	approx(t, a.Latency(), 0, 0, "burst latency")
}

func TestInverseLower(t *testing.T) {
	b := RateLatency(4, 3)
	approx(t, b.InverseLower(0), 0, 0, "inv(0)")
	approx(t, b.InverseLower(8), 5, 1e-12, "inv(8)")
	a := Affine(2, 5)
	approx(t, a.InverseLower(5), 0, 0, "inv at burst")
	approx(t, a.InverseLower(4), 0, 0, "inv below burst")
	approx(t, a.InverseLower(9), 2, 1e-12, "inv above burst")
	z := Constant(3)
	if !math.IsInf(z.InverseLower(4), 1) {
		t.Error("inverse above bounded curve must be +Inf")
	}
	s := Step(10, 4)
	approx(t, s.InverseLower(7), 4, 1e-12, "jump inverse")
}

func TestMinMax(t *testing.T) {
	a := Affine(1, 10) // t + 10
	b := Affine(3, 2)  // 3t + 2
	m := Min(a, b)
	// Crossing at t = 4.
	approx(t, m.Value(2), 8, 1e-9, "min before crossing (b)")
	approx(t, m.Value(4), 14, 1e-9, "min at crossing")
	approx(t, m.Value(10), 20, 1e-9, "min after crossing (a)")
	approx(t, m.UltimateSlope(), 1, 1e-9, "min ultimate slope")
	if !m.IsConcave() {
		t.Error("min of concave is concave")
	}
	x := Max(a, b)
	approx(t, x.Value(2), 12, 1e-9, "max before crossing (a)")
	approx(t, x.Value(10), 32, 1e-9, "max after crossing (b)")
	approx(t, x.UltimateSlope(), 3, 1e-9, "max ultimate slope")
}

// Two lines that cross 0.2 ps after the origin: the crossing is below
// absEps(0), so it cannot be a breakpoint of its own. Past it the min is the
// 9.6 kB/s line and the max the 2.4 GB/s one, for ever; taking the operand
// that attains at 0 instead gave the min an ultimate slope of 2.4 GB/s.
func TestMinMaxCollapsedCrossing(t *testing.T) {
	slow := New(0, []Segment{{0, 23427.03012812148, 9593.345870854988}})
	fast := New(0, []Segment{{0, 23427.02966239526, 2.3635545090502167e9}})
	for _, ops := range [][2]Curve{{slow, fast}, {fast, slow}} {
		m, x := Min(ops[0], ops[1]), Max(ops[0], ops[1])
		approx(t, m.UltimateSlope(), slow.UltimateSlope(), 1e-9, "min ultimate slope")
		approx(t, x.UltimateSlope(), fast.UltimateSlope(), 1e-9, "max ultimate slope")
		for _, at := range []float64{1e-9, 1e-3, 1, 1e3} {
			want := math.Min(slow.Value(at), fast.Value(at))
			approx(t, m.Value(at), want, 1e-12*want, "min value")
			want = math.Max(slow.Value(at), fast.Value(at))
			approx(t, x.Value(at), want, 1e-12*want, "max value")
		}
	}
}

// The same collapse at a two-segment arrival: the 11.6 GB/s line is lower
// only for the first 0.585 ns. Carrying its slope to the arrival's knee at
// 13.6 ms left a downward jump there, and Min panicked.
func TestMinCollapsedCrossingBeforeKnee(t *testing.T) {
	f := New(0, []Segment{{0, 6.8096, 4906.98}, {0.0136, 6.8096 + 4906.98*0.0136, 3038.13}})
	line := Line(1.1648e10)
	m := Min(f, line)
	for _, at := range []float64{1e-9, 1e-6, 0.0136, 0.5, 100} {
		want := math.Min(f.Value(at), line.Value(at))
		approx(t, m.Value(at), want, 1e-12*want, "min value")
	}
	approx(t, m.UltimateSlope(), 3038.13, 1e-9, "min ultimate slope")
}

func TestMinWithJumps(t *testing.T) {
	a := Affine(1, 5)
	z := Zero()
	m := Min(a, z)
	if !m.Equal(Zero()) {
		t.Errorf("min with zero = %v", m)
	}
	x := Max(a, z)
	if !x.Equal(a) {
		t.Errorf("max with zero = %v", x)
	}
}

func TestAddSub(t *testing.T) {
	a := Affine(2, 3)
	b := RateLatency(5, 1)
	s := Add(a, b)
	approx(t, s.Value(2), 2*2+3+5*1, 1e-9, "sum at 2")
	approx(t, s.UltimateSlope(), 7, 1e-9, "sum slope")
	d := Sub(s, b)
	if !d.Equal(a) {
		t.Errorf("(a+b)-b != a: %v vs %v", d, a)
	}
}

func TestScale(t *testing.T) {
	a := Affine(2, 3)
	s := Scale(a, 2.5)
	approx(t, s.Value(2), 2.5*(7), 1e-9, "scaled")
	st := ScaleTime(a, 2)
	approx(t, st.Value(4), a.Value(2), 1e-9, "time-scaled")
}

func TestShiftRight(t *testing.T) {
	a := Affine(2, 3)
	s := ShiftRight(a, 5)
	approx(t, s.Value(4), 0, 0, "before shift")
	approx(t, s.Value(7), a.Value(2), 1e-9, "after shift")
	if got := ShiftRight(a, 0); !got.Equal(a) {
		t.Error("shift by 0 must be identity")
	}
}

func TestShiftLeft(t *testing.T) {
	b := RateLatency(4, 3)
	s := ShiftLeft(b, 2)
	approx(t, s.Value(0), 0, 0, "shifted origin")
	approx(t, s.Value(1), 0, 0, "still in latency")
	approx(t, s.Value(3), 8, 1e-9, "past latency")
	s2 := ShiftLeft(b, 5)
	approx(t, s2.Value(0), 8, 1e-9, "origin past latency")
	approx(t, s2.Value(2), 16, 1e-9, "slope continues")
	if got := ShiftLeft(b, 0); !got.Equal(b) {
		t.Error("shift by 0 must be identity")
	}
}

func TestAddBurst(t *testing.T) {
	a := Affine(2, 3)
	p := AddBurst(a, 4) // packetizer transform
	approx(t, p.Value(0), 0, 0, "still 0 at origin")
	approx(t, p.Burst(), 7, 1e-9, "burst grew")
	approx(t, p.Value(2), 11, 1e-9, "value")
}

func TestSubConstantPositive(t *testing.T) {
	b := RateLatency(4, 3)
	p := SubConstantPositive(b, 8) // [beta - 8]+ = 4(t-5)+
	want := RateLatency(4, 5)
	if !p.Equal(want) {
		t.Errorf("[beta-l]+ = %v, want %v", p, want)
	}
	// Subtracting nothing is the identity.
	if got := SubConstantPositive(b, 0); !got.Equal(b) {
		t.Error("subtract 0 must be identity")
	}
	// Subtracting below a burst clips at the origin.
	a := Affine(2, 5)
	q := SubConstantPositive(a, 3)
	approx(t, q.Burst(), 2, 1e-9, "clipped burst")
	approx(t, q.Value(1), 4, 1e-9, "value after clip")
	// Subtracting more than the curve ever reaches gives zero.
	c := Constant(3)
	if got := SubConstantPositive(c, 5); !got.Equal(Zero()) {
		t.Errorf("unreachable subtraction = %v", got)
	}
}

func TestEqual(t *testing.T) {
	if !Affine(2, 3).Equal(Affine(2, 3)) {
		t.Error("identical curves must be Equal")
	}
	if Affine(2, 3).Equal(Affine(2, 4)) {
		t.Error("different bursts must differ")
	}
	if Affine(2, 3).Equal(Affine(3, 3)) {
		t.Error("different rates must differ")
	}
}

func TestNewValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"no segments":    func() { New(0, nil) },
		"nonzero start":  func() { New(0, []Segment{{1, 0, 1}}) },
		"negative slope": func() { New(0, []Segment{{0, 0, -1}}) },
		"downward jump":  func() { New(0, []Segment{{0, 5, 1}, {2, 3, 1}}) },
		"origin above":   func() { New(5, []Segment{{0, 1, 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNormalizeMergesCollinear(t *testing.T) {
	c := New(0, []Segment{{0, 0, 2}, {3, 6, 2}, {5, 10, 2}})
	if len(c.Segments()) != 1 {
		t.Errorf("collinear segments not merged: %v", c)
	}
}

func TestSample(t *testing.T) {
	a := Affine(2, 3)
	xs, ys := a.Sample(10, 5)
	if len(xs) != 6 || len(ys) != 6 {
		t.Fatalf("lengths %d %d", len(xs), len(ys))
	}
	approx(t, xs[5], 10, 1e-12, "last x")
	approx(t, ys[5], 23, 1e-9, "last y")
	approx(t, ys[0], 0, 0, "first y is f(0)")
}

func TestStringNonEmpty(t *testing.T) {
	if Affine(1, 2).String() == "" {
		t.Error("String must not be empty")
	}
}

// TestValidateToleratesMergeDrift builds the triple that used to panic in
// ConvolveExact under the tight rung: B continues A within the merge
// tolerances and is dropped by normalize, C continues B within absEps — and
// so sits up to two absEps (plus the slope difference over B's span) below
// the line of A it is now measured against. The input is continuous to
// within tolerance at every breakpoint, so it must construct; a jump an
// order of magnitude larger at the same scale must still be refused.
func TestValidateToleratesMergeDrift(t *testing.T) {
	const y = 4987842.49 // the magnitude of the observed failure
	tol := absEps(y)
	a := Segment{X: 0, Y: y, Slope: 1000}
	b := Segment{X: 1, Y: y + 1000 - 0.9*tol, Slope: 1000}
	bEnd := b.Y + b.Slope
	c := New(0, []Segment{a, b, {X: 2, Y: bEnd - 0.9*tol, Slope: 500}})
	if n := len(c.Segments()); n != 2 {
		t.Fatalf("want B merged into A (2 segments), got %d: %v", n, c)
	}
	if got, want := c.Value(2), bEnd-0.9*tol; got != want {
		t.Errorf("Value(2) = %v, want the input's %v", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("a downward jump of 100 absEps must still panic")
		}
	}()
	New(0, []Segment{a, b, {X: 2, Y: bEnd - 100*tol, Slope: 500}})
}

// A rate-latency curve whose latency falls within normalize's x-resolution
// of the origin used to lose its origin segment and panic in validation. It
// is built with the latency rounded up to MinLatency — never down to zero: a
// service curve may only get lower.
func TestRateLatencySubResolutionLatency(t *testing.T) {
	for _, rate := range []float64{1, 1e6, 1e11} {
		for _, lat := range []float64{1e-12, 1e-9, 1e-9 * (1 + 1e-9), 1.5e-9} {
			c := RateLatency(rate, lat)
			if got := c.Latency(); got != MinLatency {
				t.Errorf("RateLatency(%g, %g): latency %g, want %g", rate, lat, got, MinLatency)
			}
			for _, x := range []float64{0, lat, MinLatency, 1e-6, 1} {
				if exact := rate * math.Max(0, x-lat); c.Value(x) > exact*(1+1e-12) {
					t.Errorf("RateLatency(%g, %g)(%g) = %g above the exact %g", rate, lat, x, c.Value(x), exact)
				}
			}
		}
		if got := RateLatency(rate, 2e-9).Latency(); got != 2e-9 {
			t.Errorf("RateLatency(%g, 2e-9): latency %g, want it kept", rate, got)
		}
		if got := RateLatency(rate, 0).Latency(); got != 0 {
			t.Errorf("RateLatency(%g, 0): latency %g, want 0", rate, got)
		}
	}
}
