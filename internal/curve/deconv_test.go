package curve

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeconvolveLeakyBucketRateLatency(t *testing.T) {
	// Classic output bound: gamma_{r,b} deconv beta_{R,T} = gamma_{r, b+rT}
	// when r <= R.
	a := Affine(2, 5)
	b := RateLatency(4, 3)
	got, ok := Deconvolve(a, b)
	if !ok {
		t.Fatal("expected bounded deconvolution")
	}
	want := Affine(2, 5+2*3)
	if !got.ZeroAtOrigin().Equal(want) {
		t.Errorf("deconv = %v, want %v", got, want)
	}
	// The raw value at 0 is the vertical deviation sup(f-g) = b + rT.
	approx(t, got.AtZero(), 11, 1e-9, "deconv at origin")
}

func TestDeconvolveUnbounded(t *testing.T) {
	a := Affine(5, 1)
	b := RateLatency(4, 0) // service rate below arrival rate
	if _, ok := Deconvolve(a, b); ok {
		t.Error("expected unbounded deconvolution")
	}
}

func TestDeconvolveEqualRates(t *testing.T) {
	a := Affine(4, 5)
	b := RateLatency(4, 3)
	got, ok := Deconvolve(a, b)
	if !ok {
		t.Fatal("equal rates are still bounded")
	}
	want := Affine(4, 5+4*3)
	if !got.ZeroAtOrigin().Equal(want) {
		t.Errorf("deconv = %v, want %v", got, want)
	}
}

func TestDeconvolveIdentityAgainstZeroLatency(t *testing.T) {
	// deconv against an infinitely fast server beta = line(R), R >= r:
	// alpha deconv lambda_R = alpha when alpha is leaky bucket with r <= R.
	a := Affine(2, 5)
	b := Line(100)
	got, ok := Deconvolve(a, b)
	if !ok {
		t.Fatal("bounded")
	}
	if !got.ZeroAtOrigin().Equal(a) {
		t.Errorf("deconv vs fast line = %v, want %v", got, a)
	}
}

// checkDeconvBrute verifies got(t) >= and ~= sup_u f(t+u)-g(u) on a grid.
func checkDeconvBrute(t *testing.T, f, g, got Curve, horizon, uMax float64) {
	t.Helper()
	const n = 300
	for i := 0; i <= n; i++ {
		x := horizon * float64(i) / float64(n)
		best := f.Value(x) - g.AtZero()
		for j := 0; j <= n; j++ {
			u := uMax * float64(j) / float64(n)
			if v := f.Value(x+u) - g.Value(u); v > best {
				best = v
			}
			if v := f.Value(x+u) - g.ValueLeft(u); v > best {
				best = v
			}
		}
		gv := got.Value(x)
		// Exact result must dominate every sampled witness and not exceed
		// the sampled sup by more than grid slack.
		if gv < best-1e-6*(1+math.Abs(best)) {
			t.Fatalf("deconv too low at t=%g: %g < %g", x, gv, best)
		}
		if gv > best+0.35 {
			t.Fatalf("deconv too high at t=%g: %g > %g", x, gv, best)
		}
	}
}

func TestDeconvolveMatchesBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 20; k++ {
		r := 0.5 + 3*rng.Float64()
		R := r + 0.5 + 3*rng.Float64()
		a := Affine(r, 10*rng.Float64())
		b := RateLatency(R, 4*rng.Float64())
		got, ok := Deconvolve(a, b)
		if !ok {
			t.Fatal("bounded case reported unbounded")
		}
		checkDeconvBrute(t, a, b, got, 12, 30)
	}
}

func TestDeconvolveMultiSegmentService(t *testing.T) {
	// Service: 0 until 1, slope 2 until 4, then slope 6 (convex).
	b := New(0, []Segment{{0, 0, 0}, {1, 0, 2}, {4, 6, 6}})
	a := Affine(1.5, 4)
	got, ok := Deconvolve(a, b)
	if !ok {
		t.Fatal("bounded")
	}
	checkDeconvBrute(t, a, b, got, 12, 30)
}

func TestDeconvolveConcaveArrivalTwoBuckets(t *testing.T) {
	// Arrival constrained by two leaky buckets (concave, 2 segments).
	a := Min(Affine(5, 1), Affine(1, 9))
	b := RateLatency(6, 2)
	got, ok := Deconvolve(a, b)
	if !ok {
		t.Fatal("bounded")
	}
	checkDeconvBrute(t, a, b, got, 12, 30)
}

func TestDeconvolveVsSampledHelper(t *testing.T) {
	a := Affine(2, 5)
	b := RateLatency(4, 3)
	exact, _ := Deconvolve(a, b)
	xs, ys := DeconvolveSampled(a, b, 10, 30, 200)
	for i := range xs {
		if ev := exact.Value(xs[i]); ev < ys[i]-1e-6 {
			t.Fatalf("exact below sampled at %g: %g < %g", xs[i], ev, ys[i])
		}
	}
}

// Output-bound semantics: deconvolution of the arrival against the service
// dominates the arrival itself (a server can only increase burstiness).
func TestDeconvolveDominatesArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 20; k++ {
		r := 0.5 + 3*rng.Float64()
		a := Affine(r, 10*rng.Float64())
		b := RateLatency(r+1+3*rng.Float64(), 4*rng.Float64())
		out, ok := Deconvolve(a, b)
		if !ok {
			t.Fatal("bounded")
		}
		for _, x := range []float64{0.1, 0.5, 1, 3, 10, 40} {
			if out.Value(x) < a.Value(x)-1e-6 {
				t.Fatalf("output bound below arrival at %g", x)
			}
		}
	}
}

func TestHDevClosedForm(t *testing.T) {
	// d <= T + b/R for leaky bucket alpha and rate-latency beta.
	a := Affine(2, 5)
	b := RateLatency(4, 3)
	got := HDev(a, b)
	approx(t, got, 3+5.0/4.0, 1e-9, "hdev closed form")
}

func TestHDevUnbounded(t *testing.T) {
	if !math.IsInf(HDev(Affine(5, 1), RateLatency(4, 1)), 1) {
		t.Error("overloaded hdev must be +Inf")
	}
	// Bounded service curve that alpha exceeds.
	if !math.IsInf(HDev(Affine(1, 1), Constant(3)), 1) {
		t.Error("arrival exceeding bounded service must be +Inf")
	}
}

func TestHDevEqualRates(t *testing.T) {
	a := Affine(4, 5)
	b := RateLatency(4, 3)
	approx(t, HDev(a, b), 3+5.0/4.0, 1e-9, "hdev equal rates")
}

func TestHDevZeroWhenServiceDominates(t *testing.T) {
	a := Affine(1, 0)
	b := Line(5)
	approx(t, HDev(a, b), 0, 1e-12, "no delay")
}

func TestVDevClosedForm(t *testing.T) {
	// x <= b + R_alpha*T for leaky bucket and rate-latency.
	a := Affine(2, 5)
	b := RateLatency(4, 3)
	approx(t, VDev(a, b), 5+2*3, 1e-9, "vdev closed form")
}

func TestVDevUnbounded(t *testing.T) {
	if !math.IsInf(VDev(Affine(5, 0), Line(4)), 1) {
		t.Error("overloaded vdev must be +Inf")
	}
}

func TestVDevEqualRates(t *testing.T) {
	a := Affine(4, 5)
	b := RateLatency(4, 3)
	approx(t, VDev(a, b), 5+4*3, 1e-9, "vdev equal rates")
}

// An arrival knot 0.5 ns past the service latency, closer than absEps: the
// sup sits on the arrival knot, where f has risen at 1e12 B/s and g at only
// 1e9 B/s since 5 ns. Merging the two knots would read 6000 at 5 ns.
func TestVDevKnotsWithinEps(t *testing.T) {
	f := New(0, []Segment{{0, 1000, 1e12}, {5.5e-9, 6500, 1e6}})
	g := RateLatency(1e9, 5e-9)
	approx(t, VDev(f, g), 6500-0.5, 1e-9, "vdev at the arrival knot")
}

// Brute-force cross-check of HDev/VDev on random curve pairs.
func TestDevMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for k := 0; k < 30; k++ {
		r := 0.5 + 3*rng.Float64()
		R := r + 0.2 + 3*rng.Float64()
		a := Min(Affine(r+2, rng.Float64()*3), Affine(r, 10*rng.Float64()))
		b := RateLatency(R, 4*rng.Float64())

		wantV := VDev(a, b)
		wantH := HDev(a, b)
		const n = 4000
		horizon := 40.0
		bruteV := a.AtZero() - b.AtZero()
		bruteH := 0.0
		for i := 0; i <= n; i++ {
			x := horizon * float64(i) / float64(n)
			if v := a.Value(x) - b.Value(x); v > bruteV {
				bruteV = v
			}
			d := b.InverseLower(a.Value(x)) - x
			if d > bruteH {
				bruteH = d
			}
		}
		if wantV < bruteV-1e-6 || wantV > bruteV+0.2 {
			t.Fatalf("vdev %g vs brute %g (a=%v b=%v)", wantV, bruteV, a, b)
		}
		if wantH < bruteH-1e-6 || wantH > bruteH+0.2 {
			t.Fatalf("hdev %g vs brute %g (a=%v b=%v)", wantH, bruteH, a, b)
		}
	}
}
