package curve

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the differential harness for the O(n+m) merge kernels: the
// two-pointer combineMerge must be pointwise identical (on a dense grid) to
// the retained sort-based reference combineSorted on randomized curve
// pairs, and structurally equal curves must produce equal digests.

// randCurve builds a random valid wide-sense-increasing piecewise-linear
// curve with up to maxSegs segments, optional origin value, optional upward
// jumps, and slopes drawn around the given magnitude so the harness also
// exercises large-scale (GB/s-like) values.
func randCurve(rng *rand.Rand, maxSegs int, magnitude float64) Curve {
	n := 1 + rng.Intn(maxSegs)
	segs := make([]Segment, 0, n)
	x, y := 0.0, 0.0
	if rng.Intn(3) == 0 {
		y = magnitude * rng.Float64()
	}
	y0 := 0.0
	if rng.Intn(4) == 0 {
		y0 = y * rng.Float64()
	}
	for i := 0; i < n; i++ {
		slope := magnitude * rng.Float64() * 4
		if rng.Intn(5) == 0 {
			slope = 0
		}
		segs = append(segs, Segment{x, y, slope})
		dx := 0.1 + 3*rng.Float64()
		y += slope * dx
		if rng.Intn(4) == 0 {
			y += magnitude * rng.Float64() // upward jump
		}
		x += dx
	}
	return New(y0, segs)
}

// sameOnGrid asserts f and g agree pointwise on a dense grid over
// [0, horizon], with a tolerance relative to the local value.
func sameOnGrid(t *testing.T, f, g Curve, horizon float64, msg string) {
	t.Helper()
	for i := 0; i <= 400; i++ {
		x := horizon * float64(i) / 400
		fv, gv := f.Value(x), g.Value(x)
		if math.Abs(fv-gv) > 1e-6*(1+math.Abs(fv)+math.Abs(gv)) {
			t.Fatalf("%s: differ at %g: merge=%g sorted=%g", msg, x, fv, gv)
		}
	}
}

func TestKernelDifferentialRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ops := []struct {
		name string
		op   binOp
	}{{"min", binMin}, {"max", binMax}, {"add", binAdd}}
	for _, mag := range []float64{1, 1e6, 1e9} {
		for k := 0; k < 200; k++ {
			a := randCurve(rng, 8, mag)
			b := randCurve(rng, 8, mag)
			horizon := 1.5 * math.Max(a.LastBreak(), b.LastBreak())
			if horizon == 0 {
				horizon = 10
			}
			for _, tc := range ops {
				merged := combineMerge(a, b, tc.op)
				sorted := combineSorted(a, b, tc.op)
				sameOnGrid(t, merged, sorted, horizon, tc.name)
			}
		}
	}
}

// Equal curve values must yield equal digests: rebuilding a curve from its
// own normalized segments is the identity, digest included.
func TestDigestStability(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for k := 0; k < 200; k++ {
		c := randCurve(rng, 10, math.Pow(10, float64(rng.Intn(10))))
		r := New(c.AtZero(), c.Segments())
		if !r.Equal(c) {
			t.Fatalf("rebuild not equal: %v vs %v", r, c)
		}
		if r.Digest() != c.Digest() {
			t.Fatalf("rebuild digest differs: %x vs %x for %v", r.Digest(), c.Digest(), c)
		}
	}
	// Distinct curves should (overwhelmingly) get distinct digests.
	seen := map[uint64]Curve{}
	for k := 0; k < 500; k++ {
		c := Affine(1+float64(k)/7, float64(k%13))
		if prev, dup := seen[c.Digest()]; dup && !prev.Equal(c) {
			t.Fatalf("digest collision between %v and %v", prev, c)
		}
		seen[c.Digest()] = c
	}
}

// The kernels must agree with the reference on curves that share
// breakpoints and on exactly-coincident curves (tie-handling paths).
func TestKernelDifferentialTies(t *testing.T) {
	a := New(0, []Segment{{0, 0, 2}, {1, 2, 1}, {3, 4, 5}})
	cases := []struct {
		name string
		b    Curve
	}{
		{"identical", New(0, []Segment{{0, 0, 2}, {1, 2, 1}, {3, 4, 5}})},
		{"shared breakpoints", New(0, []Segment{{0, 1, 1}, {1, 2, 3}, {3, 8, 2}})},
		{"crossing on final ray", Affine(1, 3)},
		{"touching then diverging", New(0, []Segment{{0, 0, 2}, {1, 2, 4}})},
		{"constant", Constant(3)},
		{"zero", Zero()},
	}
	for _, tc := range cases {
		for _, op := range []binOp{binMin, binMax, binAdd} {
			merged := combineMerge(a, tc.b, op)
			sorted := combineSorted(a, tc.b, op)
			sameOnGrid(t, merged, sorted, 12, tc.name)
		}
	}
}

// Envelope must match the Min-fold of the same buckets.
func TestEnvelopeMatchesMinFold(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for k := 0; k < 100; k++ {
		n := 1 + rng.Intn(6)
		buckets := make([]Bucket, n)
		var fold Curve
		for i := range buckets {
			buckets[i] = Bucket{Rate: 0.5 + 10*rng.Float64(), Burst: 20 * rng.Float64()}
			line := Affine(buckets[i].Rate, buckets[i].Burst)
			if i == 0 {
				fold = line
			} else {
				fold = Min(fold, line)
			}
		}
		env := Envelope(buckets)
		// Pointwise identity; digests may differ by crossing-abscissa ulps
		// because the fold computes intersections pairwise.
		sameOnGrid(t, env, fold, 40, "envelope vs min-fold")
		if env.UltimateSlope() != fold.UltimateSlope() {
			t.Fatalf("envelope ultimate slope %g != fold %g for %v",
				env.UltimateSlope(), fold.UltimateSlope(), buckets)
		}
	}
}

// Operators are pure functions of their operands: a repeated call must
// produce the bit-identical curve (same segments, same digest), whatever ran
// in between.
func TestOperatorsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for k := 0; k < 50; k++ {
		a := randCurve(rng, 6, 1e3)
		b := randCurve(rng, 6, 1e3)
		m1 := Min(a, b)
		c1 := Convolve(a, b)
		Max(b, a)
		m2 := Min(a, b)
		c2 := Convolve(a, b)
		if !m1.Equal(m2) || m1.Digest() != m2.Digest() {
			t.Fatalf("repeated Min differs: %v vs %v", m1, m2)
		}
		if !c1.Equal(c2) || c1.Digest() != c2.Digest() {
			t.Fatalf("repeated Convolve differs: %v vs %v", c1, c2)
		}
	}
}
