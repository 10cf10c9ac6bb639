package curve

import (
	"math"
	"math/rand"
	"testing"
)

func TestConcaveHullMajorantAndMinimal(t *testing.T) {
	// A packet staircase (100 bytes every 10 s): its step corners all lie
	// on the line 10*t + 100, so the least concave majorant is exactly the
	// leaky bucket Affine(10, 100).
	st := Staircase(100, 10, 5)
	h := ConcaveHull(st)
	if !h.IsConcave() {
		t.Fatalf("hull not concave: %v", h)
	}
	for _, x := range []float64{0, 0.01, 5, 10, 15, 37, 100} {
		if h.Value(x) < st.Value(x)-1e-9 {
			t.Errorf("hull below original at %v: %v < %v", x, h.Value(x), st.Value(x))
		}
	}
	if want := Affine(10, 100); !h.Equal(want) {
		t.Errorf("staircase hull = %v, want %v", h, want)
	}
}

func TestConcaveHullIdempotentAndTight(t *testing.T) {
	conc := Affine(50, 200)
	if got := ConcaveHull(conc); !got.Equal(conc) {
		t.Errorf("hull of concave curve changed it: %v", got)
	}
	// Fuzz: hull is concave, dominates, and touches the original at every
	// hull vertex (least majorant: each vertex is an original breakpoint).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		c := randomIncreasingCurve(rng)
		h := ConcaveHull(c)
		if !h.IsConcave() {
			t.Fatalf("trial %d: hull not concave\nc=%v\nh=%v", trial, c, h)
		}
		for _, x := range c.Breakpoints() {
			if h.Value(x) < c.Value(x)-1e-6*(1+c.Value(x)) {
				t.Fatalf("trial %d: hull below original at %v\nc=%v\nh=%v", trial, x, c, h)
			}
		}
		for _, s := range h.Segments() {
			if math.Abs(h.ValueRight(s.X)-c.ValueRight(s.X)) > 1e-6*(1+c.ValueRight(s.X)) {
				t.Fatalf("trial %d: hull vertex %v does not touch original (%v vs %v)\nc=%v\nh=%v",
					trial, s.X, h.ValueRight(s.X), c.ValueRight(s.X), c, h)
			}
		}
		hr, _ := h.UltimateAffine()
		cr, _ := c.UltimateAffine()
		if math.Abs(hr-cr) > 1e-9*(1+cr) {
			t.Fatalf("trial %d: hull changed ultimate rate %v -> %v", trial, cr, hr)
		}
	}
}

// randomIncreasingCurve builds a small random wide-sense increasing curve
// with upward jumps and mixed slopes (generally neither concave nor convex).
func randomIncreasingCurve(rng *rand.Rand) Curve {
	n := 1 + rng.Intn(5)
	segs := make([]Segment, n)
	x, y := 0.0, rng.Float64()*5
	for i := range segs {
		segs[i] = Segment{x, y, rng.Float64() * 20}
		dx := 0.1 + rng.Float64()*2
		y = segs[i].Y + segs[i].Slope*dx + rng.Float64()*3 // jump up
		x += dx
	}
	return newOwned(0, segs)
}

// ResidualService must now accept non-concave cross envelopes by
// concavifying them instead of reporting starvation.
func TestResidualServiceConcavifiesCross(t *testing.T) {
	beta := RateLatency(1000, 0.01)
	cross := Staircase(40, 0.2, 5) // packet staircase: not concave
	if cross.IsConcave() {
		t.Fatal("test premise: staircase should not be concave")
	}
	res, ok := ResidualService(beta, cross)
	if !ok {
		t.Fatal("residual with staircase cross reported starvation")
	}
	// The staircase's hull is Affine(200, 40) (its corners are collinear),
	// so the residual must reduce to the one computed against that hull —
	// sound because the hull is itself a valid envelope of the cross flow.
	want, wok := ResidualService(beta, Affine(200, 40))
	if !wok || !res.Equal(want) {
		t.Errorf("residual = %v, want %v (ok=%v)", res, want, wok)
	}
}

func TestFIFOResidualDominatesBlind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		R := 100 + rng.Float64()*900
		T := rng.Float64() * 0.05
		beta := RateLatency(R, T)
		r := 1 + rng.Float64()*R*0.8
		b := rng.Float64() * 500
		cross := Affine(r, b)
		if rng.Intn(2) == 0 {
			h := b/4 + 1
			cross = Staircase(h, h/r, 6) // same ultimate rate, exercises the hull path
		}
		blind, ok := ResidualService(beta, cross)
		if !ok {
			continue
		}
		tmax, _ := FIFOThetaMax(beta, cross)
		for _, th := range []float64{0, tmax / 3, tmax / 2, tmax} {
			fifo, fok := FIFOResidual(beta, cross, th)
			if !fok {
				t.Fatalf("trial %d: fifo(th=%v) starved where blind did not", trial, th)
			}
			xs := mergeBreakpoints(blind.Breakpoints(), fifo.Breakpoints())
			xs = append(xs, tmax, tmax*2+1, tmax*10+5)
			for _, x := range xs {
				if fifo.Value(x) < blind.Value(x)-1e-6*(1+blind.Value(x)) {
					t.Fatalf("trial %d: fifo(th=%v) below blind at t=%v: %v < %v\nbeta=%v\ncross=%v",
						trial, th, x, fifo.Value(x), blind.Value(x), beta, cross)
				}
			}
		}
	}
}

func TestFIFOResidualCanonicalClosedForm(t *testing.T) {
	// beta = (R, T), cross = (r, b), theta past T + b/R: beta_theta jumps
	// to R(theta-T)-b at theta, then climbs at R - r.
	R, T, r, b := 1000.0, 0.01, 300.0, 50.0
	beta := RateLatency(R, T)
	cross := Affine(r, b)
	theta := T + b/R + 0.02
	fifo, ok := FIFOResidual(beta, cross, theta)
	if !ok {
		t.Fatal("starved")
	}
	jump := R*(theta-T) - b
	if got := fifo.ValueRight(theta); math.Abs(got-jump) > 1e-6*(1+jump) {
		t.Errorf("value just after theta = %v, want %v", got, jump)
	}
	if got := fifo.Value(theta * 0.999); got != 0 {
		t.Errorf("value before theta = %v, want 0", got)
	}
	at := theta + 0.05
	want := R*(at-T) - (r*(at-theta) + b)
	if got := fifo.Value(at); math.Abs(got-want) > 1e-6*(1+want) {
		t.Errorf("value at %v = %v, want %v", at, got, want)
	}
}

func TestFIFOResidualBestImprovesDelay(t *testing.T) {
	// With affine cross and rate-latency beta, delay(theta) is strictly
	// decreasing on the dominance-safe grid, so the optimum is thetaMax and
	// it strictly beats the blind bound.
	R, T, r, b := 1000.0, 0.01, 300.0, 50.0
	alpha := Affine(200, 100)
	beta := RateLatency(R, T)
	cross := Affine(r, b)
	blind, _ := ResidualService(beta, cross)
	blindD := HDev(alpha, blind)
	res, theta, ok := FIFOResidualBest(alpha, beta, cross)
	if !ok {
		t.Fatal("starved")
	}
	if bestD := HDev(alpha, res); bestD >= blindD {
		t.Errorf("best fifo delay %v not better than blind %v (theta=%v)", bestD, blindD, theta)
	}
	tmax, _ := FIFOThetaMax(beta, cross)
	if math.Abs(theta-tmax) > 1e-9*(1+tmax) {
		t.Errorf("affine case optimal theta = %v, want thetaMax %v", theta, tmax)
	}
	// Fuzz: the best member's delay bound never exceeds blind's.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		beta := RateLatency(100+rng.Float64()*900, rng.Float64()*0.05)
		cross := Affine(rng.Float64()*80, rng.Float64()*500)
		alpha := Affine(rng.Float64()*50, rng.Float64()*300)
		blind, ok := ResidualService(beta, cross)
		if !ok {
			continue
		}
		res, _, ok := FIFOResidualBest(alpha, beta, cross)
		if !ok {
			t.Fatalf("trial %d: best starved where blind did not", trial)
		}
		if d, bd := HDev(alpha, res), HDev(alpha, blind); d > bd+1e-9*(1+bd) {
			t.Fatalf("trial %d: best delay %v worse than blind %v", trial, d, bd)
		}
	}
}

func TestFIFOResidualZeroCross(t *testing.T) {
	beta := RateLatency(500, 0.02)
	res, ok := FIFOResidual(beta, Zero(), 0.5)
	if !ok || !res.Equal(beta) {
		t.Errorf("zero cross: got %v ok=%v, want beta back", res, ok)
	}
}

func TestFIFOThetaInsert(t *testing.T) {
	g := []float64{0, 1, 2}
	if got := FIFOThetaInsert(g, 1); len(got) != 3 {
		t.Errorf("exact duplicate inserted: %v", got)
	}
	if got := FIFOThetaInsert(g, 1+1e-12); len(got) != 3 {
		t.Errorf("near-equal duplicate inserted: %v", got)
	}
	got := FIFOThetaInsert(g, 1.5)
	want := []float64{0, 1, 1.5, 2}
	if len(got) != 4 {
		t.Fatalf("insert failed: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("insert out of order: %v, want %v", got, want)
		}
	}
	for j := 1; j < len(got); j++ {
		if got[j] <= got[j-1] {
			t.Fatalf("grid not strictly increasing: %v", got)
		}
	}
	// Appending at the end and at the front both keep order.
	if got := FIFOThetaInsert([]float64{1, 2}, 3); got[2] != 3 {
		t.Errorf("tail insert: %v", got)
	}
	if got := FIFOThetaInsert([]float64{1, 2}, 0.5); got[0] != 0.5 {
		t.Errorf("head insert: %v", got)
	}
}

// sameBits reports whether two curves have bit-identical representations:
// value at zero, every segment coordinate, and the digest.
func sameBits(a, b Curve) bool {
	if math.Float64bits(a.y0) != math.Float64bits(b.y0) || len(a.segs) != len(b.segs) || a.digest != b.digest {
		return false
	}
	for i, s := range a.segs {
		u := b.segs[i]
		if math.Float64bits(s.X) != math.Float64bits(u.X) || math.Float64bits(s.Y) != math.Float64bits(u.Y) ||
			math.Float64bits(s.Slope) != math.Float64bits(u.Slope) {
			return false
		}
	}
	return true
}

// FIFOResidual's rate-latency ⊖ affine closed form returns, bit for bit, what
// the generic kernel builds from the shifted cross, over rates from 1 B/s to
// 1 GB/s and thetas on the candidate grid, at and within absEps of the
// latency, and past thetaMax. Other shapes keep the generic kernel, which
// alone calls ShiftRight.
func TestFIFOResidualClosedFormBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, rng.Float64())
	}
	var checked, withT, zeroB int
	for trial := 0; trial < 20000; trial++ {
		R := logUniform(1, 1e9)
		T := 0.0
		if rng.Intn(4) > 0 {
			T = logUniform(1e-9, 1)
		}
		r := R * (0.001 + 0.998*rng.Float64())
		b := 0.0
		if rng.Intn(4) > 0 {
			b = logUniform(1, 1e8)
		}
		beta, cross := RateLatency(R, T), Affine(r, b)
		if _, _, ok := rateLatencyShape(beta); !ok {
			t.Fatalf("RateLatency(%g, %g) does not have the rate-latency shape: %v", R, T, beta)
		}
		tmax, ok := FIFOThetaMax(beta, cross)
		if !ok {
			t.Fatalf("R=%g r=%g: starves", R, r)
		}
		// θ on the grid, at the latency, on both sides of it within absEps,
		// on both sides of the edge absEps(T) below it where the generic
		// breakpoint merge starts to keep T apart from θ, and past θmax.
		lat := beta.Latency()
		edge := lat - absEps(lat)
		thetas := append(FIFOThetaCandidates(beta, cross),
			lat, lat*(1+1e-12), lat+0.5*absEps(lat), lat-0.5*absEps(lat),
			math.Nextafter(lat, 0), math.Nextafter(lat, math.Inf(1)),
			edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)),
			tmax*(1+3*rng.Float64()), 2*tmax+1, rng.Float64()*tmax)
		for _, th := range thetas {
			if th <= absEps(th) {
				continue
			}
			got, ok := FIFOResidual(beta, cross, th)
			if !ok {
				t.Fatalf("R=%g T=%g r=%g b=%g θ=%g: closed form reports starvation", R, T, r, b, th)
			}
			want := fifoResidual(beta, ShiftRight(cross, th), th)
			if !sameBits(got, want) {
				t.Fatalf("R=%g T=%g r=%g b=%g θ=%g:\nclosed form %v\ngeneric     %v", R, T, r, b, th, got, want)
			}
			checked++
			if T > 0 {
				withT++
			}
			if b == 0 {
				zeroB++
			}
		}
	}
	if withT == 0 || zeroB == 0 || checked < 100000 {
		t.Errorf("coverage: %d checked, %d with latency, %d with zero burst", checked, withT, zeroB)
	}
	t.Logf("%d members checked", checked)

	// Starvation and a zero cross answer as the generic path does.
	if _, ok := FIFOResidual(RateLatency(100, 1), Affine(100, 5), 0.5); ok {
		t.Error("a cross at the full rate does not starve the node")
	}
	beta := RateLatency(100, 1)
	if got, ok := FIFOResidual(beta, Affine(1e-7, 1e-7), 0.5); !ok || !sameBits(got, beta) {
		t.Errorf("a cross Equal to zero leaves %v, want beta %v", got, beta)
	}

	// Only the generic kernel shifts the cross.
	var shifts int
	defer SetOpCounter(SetOpCounter(func(op OpKind) {
		if op == opShiftRight {
			shifts++
		}
	}))
	convex := New(0, []Segment{{0, 0, 0}, {1, 0, 10}, {2, 10, 40}})
	twoBucket := Envelope([]Bucket{{Rate: 5, Burst: 20}, {Rate: 2, Burst: 50}})
	for _, c := range []struct {
		name        string
		beta, cross Curve
		generic     bool
	}{
		{"rate-latency ⊖ affine", RateLatency(100, 1), Affine(30, 40), false},
		{"rate-latency ⊖ two buckets", RateLatency(100, 1), twoBucket, true},
		{"convex ⊖ affine", convex, Affine(5, 20), true},
	} {
		shifts = 0
		got, ok := FIFOResidual(c.beta, c.cross, 0.75)
		if !ok {
			t.Fatalf("%s: starves", c.name)
		}
		if c.generic != (shifts == 1) {
			t.Errorf("%s: %d ShiftRight calls, generic kernel expected %v", c.name, shifts, c.generic)
		}
		if want := fifoResidual(c.beta, ShiftRight(c.cross, 0.75), 0.75); !sameBits(got, want) {
			t.Errorf("%s: %v, generic kernel %v", c.name, got, want)
		}
	}
}
