package curve

import "math"

// ResidualService returns the left-over (residual) service curve available
// to a flow of interest when cross traffic bounded by cross shares a server
// with service curve beta under blind (arbitrary-order) multiplexing:
//
//	beta_residual(t) = [beta(t) - cross(t)]⁺.
//
// ok is false when the cross traffic's long-run rate is at least beta's
// (the flow of interest can starve). For the canonical shapes — beta
// rate-latency (R, T), cross leaky-bucket (r, b) — this reduces to the
// textbook rate-latency (R-r, (b+RT)/(R-r)).
//
// beta must be convex (the usual rate-latency family). A non-concave cross
// envelope — a packet staircase, a composite of heterogeneous flows — is
// first replaced by its least concave majorant (ConcaveHull): a valid, if
// looser, envelope for the same traffic, so the subtraction still
// lower-bounds the residual. Rejecting such crosses outright used to
// report spurious starvation for perfectly admissible flows.
func ResidualService(beta, cross Curve) (res Curve, ok bool) {
	if !beta.IsConvex() {
		return Zero(), false
	}
	if !cross.IsConcave() {
		cross = ConcaveHull(cross)
	}
	br, _ := beta.UltimateAffine()
	cr, _ := cross.UltimateAffine()
	if br <= cr+absEps(cr) {
		return Zero(), false
	}
	// diff(t) = beta(t) - cross(t) evaluated on the merged breakpoints; the
	// difference is convex, so it has a single sign change from <= 0 to > 0.
	// Locate the crossing and emit the increasing positive tail. diff reads
	// right limits (the same values past 0): at 0 the cross burst has
	// already arrived, so a zero-latency beta still starts below it.
	xs := mergeBreakpoints(beta.Breakpoints(), cross.Breakpoints())
	diff := func(t float64) float64 { return beta.ValueRight(t) - cross.ValueRight(t) }

	// Find the first merged breakpoint (or final-ray point) with diff > 0.
	idx := -1
	for i, x := range xs {
		if diff(x) > 0 {
			idx = i
			break
		}
	}
	var t0 float64 // crossing abscissa
	switch {
	case idx == 0:
		t0 = 0
	case idx > 0:
		// Crossing inside (xs[idx-1], xs[idx]]: both curves affine there.
		lo, hi := xs[idx-1], xs[idx]
		mid := (lo + hi) / 2
		sb, sc := beta.segAt(mid), cross.segAt(mid)
		slope := sb.Slope - sc.Slope
		v := diff(hi)
		if slope > 0 {
			t0 = hi - v/slope
			if t0 < lo {
				t0 = lo
			}
		} else {
			t0 = hi
		}
	default:
		// Positive only on the final ray.
		last := xs[len(xs)-1]
		v := diff(last)
		slope := br - cr
		t0 = last - v/slope // v <= 0, slope > 0 => t0 >= last
	}

	segs := []Segment{}
	if t0 > 0 {
		segs = append(segs, Segment{0, 0, 0})
	}
	// Slope just after the crossing.
	after := math.Nextafter(t0, math.Inf(1))
	slopeAt := func(t float64) float64 {
		return beta.segAt(t).Slope - cross.segAt(t).Slope
	}
	start := Segment{t0, math.Max(0, diff(t0)), math.Max(0, slopeAt(after))}
	if t0 == 0 {
		start.Y = math.Max(0, beta.Burst()-cross.Burst())
	}
	segs = append(segs, start)
	for _, x := range xs {
		if x <= t0 {
			continue
		}
		segs = append(segs, Segment{x, diff(x), math.Max(0, slopeAt(math.Nextafter(x, math.Inf(1))))})
	}
	y0 := math.Max(0, beta.AtZero()-cross.AtZero())
	return newOwned(y0, segs), true
}

// Shape returns the arrival bound of a flow constrained by alpha after it
// passes through a greedy shaper with (concave, zero-at-origin) shaping
// curve sigma: the shaped flow is constrained by alpha ⊗ sigma = min(alpha,
// sigma) for the common concave case. Shapers implement the back-pressure
// throttling of the paper's future work: re-shaping an overloaded arrival
// down to a sustainable envelope.
func Shape(alpha, sigma Curve) Curve {
	return Convolve(alpha, sigma)
}

// SubAdditiveClosure returns the sub-additive closure
//
//	f* = min(delta_0, f, f ⊗ f, f ⊗ f ⊗ f, ...)
//
// restricted to curves with f(0) = 0 (otherwise the closure degenerates).
// For concave f with f(0) = 0 the closure is f itself (already
// sub-additive); for general piecewise-linear curves the self-convolutions
// are folded until a fixpoint (compared via Equal) or maxIter iterations.
func SubAdditiveClosure(f Curve, maxIter int) Curve {
	if f.AtZero() != 0 {
		panic("curve: SubAdditiveClosure requires f(0) = 0")
	}
	if f.IsConcave() {
		return f
	}
	if maxIter < 1 {
		maxIter = 8
	}
	closure := f
	power := f
	for i := 0; i < maxIter; i++ {
		power = Convolve(power, f)
		next := Min(closure, power)
		if next.Equal(closure) {
			return closure
		}
		closure = next
	}
	return closure
}
