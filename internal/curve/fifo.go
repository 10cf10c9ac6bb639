package curve

import (
	"math"
	"sort"
)

// FIFOResidual returns a member of the FIFO left-over service family for a
// flow of interest sharing a FIFO server (service curve beta) with cross
// traffic bounded by cross:
//
//	beta_theta(t) = [beta(t) - cross(t-theta)]⁺ · 1{t > theta},  theta >= 0.
//
// Every theta yields a valid service curve (Le Boudec & Thiran, Prop.
// 6.2.1); different members are mutually incomparable — a larger theta
// subtracts less late but guarantees nothing early — so a bound must
// commit to one theta, and tightening is a search over the family.
//
// What is returned is the non-decreasing lower envelope of the formula
// above: the raw expression can dip where the shifted cross is momentarily
// steeper than beta, and the envelope (pointwise <= the theorem curve) is
// still a valid service curve while satisfying this package's wide-sense
// increasing invariant. The envelope form is also what makes the ladder's
// dominance guarantee structural: for theta <= FIFOThetaMax,
// beta(t)-cross(t-theta) >= beta(t)-cross(t) everywhere, so the envelope
// dominates the blind residual pointwise.
//
// A non-concave cross is replaced by its ConcaveHull, as in
// ResidualService. ok is false when the cross traffic's long-run rate is
// at least beta's (the flow of interest can starve regardless of theta).
//
// For a rate-latency beta and an affine cross, the shapes every analysis
// in internal/core passes, the member is built in closed form, bit for bit
// what the generic kernel builds (see fifoResidualRateLatency).
func FIFOResidual(beta, cross Curve, theta float64) (res Curve, ok bool) {
	if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 1) {
		panic("curve: FIFOResidual with invalid theta")
	}
	if theta == 0 {
		// beta_0 is the blind residual (the indicator only excludes t = 0,
		// where the residual is zero anyway).
		return ResidualService(beta, cross)
	}
	if R, T, isRL := rateLatencyShape(beta); isRL && theta > absEps(theta) {
		if r, b, isAffine := affineShape(cross); isAffine {
			return fifoResidualRateLatency(beta, R, T, r, b, theta)
		}
	}
	if !beta.IsConvex() {
		return Zero(), false
	}
	if !cross.IsConcave() {
		cross = ConcaveHull(cross)
	}
	if cross.Equal(Zero()) {
		// No cross traffic: the full service survives for any theta.
		return beta, true
	}
	br, _ := beta.UltimateAffine()
	cr, _ := cross.UltimateAffine()
	if br <= cr+absEps(cr) {
		return Zero(), false
	}
	shifted := ShiftRight(cross, theta)
	return fifoResidual(beta, shifted, theta), true
}

// rateLatencyShape reports whether beta is exactly R·[t−T]⁺, as RateLatency
// builds it (T = 0 for the one-segment form).
func rateLatencyShape(beta Curve) (R, T float64, ok bool) {
	s := beta.segs
	if beta.y0 != 0 || s[0].Y != 0 {
		return 0, 0, false
	}
	switch {
	case len(s) == 1:
		return s[0].Slope, 0, true
	case len(s) == 2 && s[0].Slope == 0 && s[1].Y == 0:
		return s[1].Slope, s[1].X, true
	}
	return 0, 0, false
}

// affineShape reports whether cross is exactly b + r·t for t > 0 with a
// finite rate, as Affine builds it.
func affineShape(cross Curve) (r, b float64, ok bool) {
	s := cross.segs
	if cross.y0 != 0 || len(s) != 1 || math.IsInf(s[0].Slope, 1) {
		return 0, 0, false
	}
	return s[0].Slope, s[0].Y, true
}

// fifoResidualRateLatency is FIFOResidual for beta = R·[t−T]⁺ and cross =
// b + r·t at theta > absEps(theta), bit for bit: the generic path's checks
// and kernel, with the shifted cross and the breakpoint set written down
// instead of built. Every tight-rung member takes this path.
func fifoResidualRateLatency(beta Curve, R, T, r, b, theta float64) (Curve, bool) {
	// cross.Equal(Zero()): for one segment of finite rate, Equal compares the
	// jump b and the rate r against zero.
	if math.Abs(b) <= 1e-6*(1+math.Abs(b)) && math.Abs(r) <= 1e-6*(1+math.Abs(r)) {
		return beta, true
	}
	if R <= r+absEps(r) {
		return Zero(), false
	}
	// ShiftRight(cross, theta) normalizes to these two segments: theta is
	// past absEps of the origin, and a cross that is not zero is not
	// collinear with the leading zero segment.
	shifted := [2]Segment{{0, 0, 0}, {theta, b, r}}
	// The breakpoint set fifoResidual derives from beta's {0, T} and the
	// shifted cross's {0, theta}: theta, then T when mergeBreakpoints keeps
	// it apart from theta.
	xs := [2]float64{theta, T}
	n := 1
	if T-theta > absEps(T) {
		n = 2
	}
	return fifoEnvelope(beta.segs, shifted[:], xs[:n], theta), true
}

// segIn is Curve.segAt on a segment list: the last segment starting at or
// before t (t > 0). The lists fifoEnvelope reads are a few segments long, so
// a scan from the end beats a binary search.
func segIn(segs []Segment, t float64) Segment {
	i := len(segs) - 1
	for segs[i].X > t {
		i--
	}
	return segs[i]
}

// valueIn is Curve.Value on a segment list, for t > 0.
func valueIn(segs []Segment, t float64) float64 {
	s := segIn(segs, t)
	return s.Y + s.Slope*(t-s.X)
}

// fifoResidual builds the non-decreasing lower envelope of
// [beta(t) - shifted(t)]⁺·1{t>theta} for theta > 0 and a starvation-free,
// convex-minus-shifted-concave difference.
func fifoResidual(beta, shifted Curve, theta float64) Curve {
	// On (theta, ∞) the difference diff = beta - shifted is convex
	// (beta convex, shifted concave there), so its minimum sits on a
	// vertex of the merged breakpoint set and the set {diff <= 0} is an
	// interval.
	xs := mergeBreakpoints(beta.Breakpoints(), shifted.Breakpoints())
	i0 := sort.SearchFloat64s(xs, theta-absEps(theta))
	xs = append([]float64{theta}, xs[i0:]...)
	if len(xs) > 1 && xs[1]-xs[0] <= absEps(theta) {
		xs = xs[1:]
		xs[0] = theta
	}
	return fifoEnvelope(beta.segs, shifted.segs, xs, theta)
}

// fifoEnvelope is fifoResidual past its breakpoint set xs (xs[0] = theta,
// ascending), for beta and the shifted cross given by their segments.
func fifoEnvelope(bs, ss []Segment, xs []float64, theta float64) Curve {
	diffAt := func(t float64) float64 { return valueIn(bs, t) - valueIn(ss, t) }
	slopeAfter := func(t float64) float64 {
		after := math.Nextafter(t, math.Inf(1))
		return math.Max(0, segIn(bs, after).Slope-segIn(ss, after).Slope)
	}
	var vbuf [4]float64 // the closed form's one or two breakpoints stay on the stack
	v := vbuf[:0]
	m := 0
	for i, x := range xs {
		v = append(v, diffAt(x))
		if v[i] < v[m] {
			m = i
		}
	}

	segs := make([]Segment, 1, len(xs)+2)
	if v[m] > 0 {
		// Positive everywhere past theta. The envelope jumps to the future
		// minimum v[m] at theta, stays flat until the minimizing vertex,
		// then follows diff up its increasing branch.
		if m > 0 {
			segs = append(segs, Segment{theta, v[m], 0})
		}
		for i := m; i < len(xs); i++ {
			segs = append(segs, Segment{xs[i], v[i], slopeAfter(xs[i])})
		}
		return newOwned(0, segs)
	}

	// Locate the single crossing out of {diff <= 0} and emit the positive
	// increasing tail, zero before it.
	k := m
	for k+1 < len(xs) && v[k+1] <= 0 {
		k++
	}
	var t0 float64
	if k+1 < len(xs) {
		s := (v[k+1] - v[k]) / (xs[k+1] - xs[k])
		t0 = xs[k] - v[k]/s
	} else {
		t0 = xs[k] - v[k]/(bs[len(bs)-1].Slope-ss[len(ss)-1].Slope)
	}
	segs = append(segs, Segment{t0, math.Max(0, diffAt(t0)), slopeAfter(t0)})
	for i := range xs {
		if xs[i] > t0 {
			segs = append(segs, Segment{xs[i], v[i], slopeAfter(xs[i])})
		}
	}
	return newOwned(0, segs)
}

// FIFOThetaMax returns the largest theta for which FIFOResidual is
// guaranteed to dominate the blind-multiplexing residual pointwise: the
// blind residual's latency t0. For theta <= t0 the FIFO member is zero
// only where the blind residual is also zero, and past t0 it subtracts a
// cross value from an earlier (hence smaller) point. ok is false when the
// flow can starve (no residual exists at any theta).
func FIFOThetaMax(beta, cross Curve) (float64, bool) {
	blind, ok := ResidualService(beta, cross)
	if !ok {
		return 0, false
	}
	return blind.Latency(), true
}
