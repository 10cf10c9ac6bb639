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
func FIFOResidual(beta, cross Curve, theta float64) (res Curve, ok bool) {
	if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 1) {
		panic("curve: FIFOResidual with invalid theta")
	}
	if theta == 0 {
		// beta_0 is the blind residual (the indicator only excludes t = 0,
		// where the residual is zero anyway).
		return ResidualService(beta, cross)
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
	return timedCurveOK(opFIFOResidual, func() (Curve, bool) {
		return fifoResidual(beta, shifted, theta), true
	})
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
	diffAt := func(t float64) float64 { return beta.Value(t) - shifted.Value(t) }
	slopeAfter := func(t float64) float64 {
		after := math.Nextafter(t, math.Inf(1))
		return math.Max(0, beta.segAt(after).Slope-shifted.segAt(after).Slope)
	}
	v := make([]float64, len(xs))
	m := 0
	for i, x := range xs {
		v[i] = diffAt(x)
		if v[i] < v[m] {
			m = i
		}
	}

	segs := []Segment{{0, 0, 0}}
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
		brr, _ := beta.UltimateAffine()
		crr, _ := shifted.UltimateAffine()
		t0 = xs[k] - v[k]/(brr-crr)
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

// maxThetaCandidates bounds the per-node theta grid; breakpoint-difference
// candidates beyond it are thinned evenly (the endpoints always survive).
const maxThetaCandidates = 16

// FIFOThetaCandidates returns the dominance-safe theta search grid for the
// pair (beta, cross), sorted ascending: 0 (the blind residual), the
// pairwise differences of beta and cross breakpoints that fall inside
// (0, thetaMax) — the only points where the piecewise-linear structure of
// beta_theta can change — and thetaMax itself. Returns nil when the flow
// starves.
func FIFOThetaCandidates(beta, cross Curve) []float64 {
	tmax, ok := FIFOThetaMax(beta, cross)
	if !ok {
		return nil
	}
	if tmax <= 0 {
		return []float64{0}
	}
	if !cross.IsConcave() {
		cross = ConcaveHull(cross)
	}
	set := []float64{0, tmax}
	for _, bb := range beta.Breakpoints() {
		for _, bc := range cross.Breakpoints() {
			if d := bb - bc; d > absEps(tmax) && d < tmax-absEps(tmax) {
				set = append(set, d)
			}
		}
	}
	sort.Float64s(set)
	out := set[:0]
	for _, x := range set {
		if len(out) == 0 || x-out[len(out)-1] > absEps(x) {
			out = append(out, x)
		}
	}
	if len(out) > maxThetaCandidates {
		thinned := make([]float64, 0, maxThetaCandidates)
		for i := 0; i < maxThetaCandidates; i++ {
			thinned = append(thinned, out[i*(len(out)-1)/(maxThetaCandidates-1)])
		}
		out = thinned
	}
	return out
}

// FIFOThetaInsert inserts th into the sorted theta grid g, keeping it sorted
// and free of near-equal duplicates: when th is within absEps of an existing
// candidate the grid is returned unchanged. A duplicate theta would not be
// unsound — every member of the family is a valid residual — but the
// tight rung's search would score it twice, so every grid insert routes
// through here.
func FIFOThetaInsert(g []float64, th float64) []float64 {
	i := sort.SearchFloat64s(g, th)
	if i < len(g) && g[i]-th <= absEps(th) {
		return g
	}
	if i > 0 && th-g[i-1] <= absEps(th) {
		return g
	}
	g = append(g, 0)
	copy(g[i+1:], g[i:])
	g[i] = th
	return g
}

// FIFOResidualBest searches the dominance-safe theta grid for the family
// member minimizing the delay bound HDev(alpha, beta_theta) against the
// flow's arrival envelope alpha. Ties keep the smaller theta (theta = 0 is
// always a candidate, so the result never does worse than the blind
// residual). ok is false when the flow can starve.
func FIFOResidualBest(alpha, beta, cross Curve) (res Curve, theta float64, ok bool) {
	cands := FIFOThetaCandidates(beta, cross)
	if n := len(cands); n > 0 {
		// Arrival-aware candidate: the theta where the service available
		// right after theta just covers the cross and arrival bursts,
		// beta(theta) = b_cross + b_alpha. For a rate-latency beta and
		// affine envelopes this is T + (b_c + b_a)/R — the exact aggregate
		// FIFO delay bound — and it is where the delay-vs-theta curve
		// bottoms out between the structural breakpoints.
		tmax := cands[n-1]
		if th := beta.InverseLower(cross.Burst() + alpha.Burst()); th > 0 && th < tmax && !math.IsInf(th, 1) {
			cands = FIFOThetaInsert(cands, th)
		}
	}
	bestD := math.Inf(1)
	for _, th := range cands {
		r, rok := FIFOResidual(beta, cross, th)
		if !rok {
			continue
		}
		if d := HDev(alpha, r); !ok || d < bestD-absEps(bestD) {
			bestD, res, theta, ok = d, r, th, true
		}
	}
	return res, theta, ok
}
