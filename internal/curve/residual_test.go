package curve

import (
	"math"
	"math/rand"
	"testing"
)

func TestResidualServiceTextbook(t *testing.T) {
	// beta = RL(R=10, T=2), cross = LB(r=3, b=4):
	// residual = RL(R-r=7, (b+RT)/(R-r) = (4+20)/7).
	beta := RateLatency(10, 2)
	cross := Affine(3, 4)
	got, ok := ResidualService(beta, cross)
	if !ok {
		t.Fatal("expected residual service")
	}
	want := RateLatency(7, 24.0/7.0)
	if !got.Equal(want) {
		t.Errorf("residual = %v, want %v", got, want)
	}
}

// A zero-latency server still owes the cross burst first: beta = RL(100, 0)
// against cross = LB(40, 500) leaves RL(60, 500/60), not the (R-r)·t a
// crossing search reading f(0) = 0 for both curves finds.
func TestResidualServiceZeroLatency(t *testing.T) {
	got, ok := ResidualService(RateLatency(100, 0), Affine(40, 500))
	if !ok {
		t.Fatal("expected residual service")
	}
	if want := RateLatency(60, 500.0/60); !got.Equal(want) {
		t.Errorf("residual = %v, want %v", got, want)
	}
}

func TestResidualServiceStarved(t *testing.T) {
	if _, ok := ResidualService(RateLatency(3, 1), Affine(3, 0)); ok {
		t.Error("cross rate == service rate must starve")
	}
	if _, ok := ResidualService(RateLatency(3, 1), Affine(5, 0)); ok {
		t.Error("cross rate above service rate must starve")
	}
}

func TestResidualServiceZeroBurstCross(t *testing.T) {
	// A burstless cross flow only steals rate: residual latency is the
	// original work R*T respread over the leftover rate, RT/(R-r).
	got, ok := ResidualService(RateLatency(10, 2), Affine(4, 0))
	if !ok {
		t.Fatal("expected residual service")
	}
	want := RateLatency(6, 20.0/6.0)
	if !got.Equal(want) {
		t.Errorf("residual = %v, want %v", got, want)
	}

	// Degenerate: no cross at all is the identity.
	got, ok = ResidualService(RateLatency(10, 2), Affine(0, 0))
	if !ok {
		t.Fatal("expected residual service")
	}
	if !got.Equal(RateLatency(10, 2)) {
		t.Errorf("residual under zero cross = %v, want the original", got)
	}
}

// Repeated subtraction is associative: subtracting cross flows one at a time
// — in any order — lands on the same curve as subtracting their sum at once,
// [[beta-c1]⁺-c2]⁺ = [beta-(c1+c2)]⁺. (Exact for non-negative cross curves:
// wherever the two sides differ the inner positive part is clamping at zero,
// and subtracting more keeps both at zero.) This is what lets an admission
// controller release flows in any order without replaying history.
func TestResidualServiceAssociative(t *testing.T) {
	beta := RateLatency(10, 2)
	c1 := Affine(3, 4)
	c2 := Affine(2, 7)

	oneShot, ok := ResidualService(beta, Add(c1, c2))
	if !ok {
		t.Fatal("combined cross must not starve")
	}
	step12, ok := ResidualService(beta, c1)
	if !ok {
		t.Fatal("c1 must not starve")
	}
	step12, ok = ResidualService(step12, c2)
	if !ok {
		t.Fatal("c1 then c2 must not starve")
	}
	step21, ok := ResidualService(beta, c2)
	if !ok {
		t.Fatal("c2 must not starve")
	}
	step21, ok = ResidualService(step21, c1)
	if !ok {
		t.Fatal("c2 then c1 must not starve")
	}

	if !step12.Equal(oneShot) {
		t.Errorf("sequential (c1,c2) = %v, one-shot = %v", step12, oneShot)
	}
	if !step21.Equal(step12) {
		t.Errorf("release order matters: (c2,c1) = %v, (c1,c2) = %v", step21, step12)
	}
}

func TestResidualServiceShapeRequirements(t *testing.T) {
	// Non-convex beta is rejected.
	if _, ok := ResidualService(Affine(5, 2), Affine(1, 1)); ok {
		t.Error("concave beta must be rejected")
	}
	// A non-concave cross is concavified (least concave majorant) rather
	// than rejected: RateLatency(1, 2)'s hull is the line t (the flattest
	// concave curve keeping the ultimate rate), so the residual is that of
	// a slope-1 fluid cross flow.
	res, ok := ResidualService(RateLatency(5, 1), RateLatency(1, 2))
	if !ok {
		t.Fatal("convex cross must be concavified, not rejected")
	}
	if want, _ := ResidualService(RateLatency(5, 1), Line(1)); !res.Equal(want) {
		t.Errorf("residual = %v, want %v", res, want)
	}
}

// Brute-force check: residual(t) == max(0, beta(t)-cross(t)) pointwise.
func TestResidualServiceMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < 30; k++ {
		R := 2 + 8*rng.Float64()
		r := rng.Float64() * (R - 0.5)
		beta := RateLatency(R, 4*rng.Float64())
		cross := Min(Affine(r, 10*rng.Float64()), Affine(r+3, rng.Float64()))
		got, ok := ResidualService(beta, cross)
		if !ok {
			t.Fatalf("unexpected starvation R=%v cross=%v", R, cross)
		}
		for i := 0; i <= 400; i++ {
			x := 20 * float64(i) / 400
			want := math.Max(0, beta.Value(x)-cross.Value(x))
			if math.Abs(got.Value(x)-want) > 1e-6*(1+want) {
				t.Fatalf("residual(%g) = %g, want %g (beta=%v cross=%v)",
					x, got.Value(x), want, beta, cross)
			}
		}
	}
}

// End-to-end multi-flow property: the per-flow delay bound computed from
// the residual service dominates the single-flow bound.
func TestResidualDelayDominatesSingleFlow(t *testing.T) {
	beta := RateLatency(10, 1)
	flow := Affine(2, 3)
	cross := Affine(4, 2)
	resid, ok := ResidualService(beta, cross)
	if !ok {
		t.Fatal("residual expected")
	}
	dAlone := HDev(flow, beta)
	dShared := HDev(flow, resid)
	if dShared < dAlone {
		t.Errorf("shared delay %v below exclusive delay %v", dShared, dAlone)
	}
}

func TestShapeConcave(t *testing.T) {
	alpha := Affine(5, 10)
	sigma := Affine(3, 2)
	got := Shape(alpha, sigma)
	want := Min(alpha, sigma)
	if !got.Equal(want) {
		t.Errorf("shaped = %v, want %v", got, want)
	}
	// A shaper re-establishes stability: shaped rate <= sigma's rate.
	if got.UltimateSlope() > 3+1e-12 {
		t.Error("shaper must clamp the long-run rate")
	}
}

func TestSubAdditiveClosureConcave(t *testing.T) {
	f := Affine(2, 5)
	if !SubAdditiveClosure(f, 8).Equal(f) {
		t.Error("concave curves are already sub-additive")
	}
}

func TestSubAdditiveClosureConvex(t *testing.T) {
	// A rate-latency curve is NOT sub-additive; its closure converges to
	// something below it (f(s+t) <= f*(s)+f*(t)).
	f := RateLatency(4, 3)
	cl := SubAdditiveClosure(f, 12)
	for i := 0; i <= 100; i++ {
		x := 20 * float64(i) / 100
		if cl.Value(x) > f.Value(x)+1e-9 {
			t.Fatalf("closure above original at %g", x)
		}
	}
	if !IsSubAdditive(cl, 10, 40) {
		t.Error("closure must be sub-additive on the sampled grid")
	}
	if IsSubAdditive(f, 10, 40) {
		t.Error("rate-latency with T>0 is not sub-additive")
	}
}

func TestSubAdditiveClosurePanicsOnPositiveOrigin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SubAdditiveClosure(Curve{y0: 1, segs: []Segment{{0, 1, 1}}}, 4)
}

func TestIsSubAdditiveBasics(t *testing.T) {
	if !IsSubAdditive(Affine(1, 2), 10, 20) {
		t.Error("leaky bucket is sub-additive")
	}
	if !IsSubAdditive(Zero(), 10, 2) {
		t.Error("zero curve is sub-additive")
	}
}
