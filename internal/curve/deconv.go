package curve

import (
	"math"
)

// Deconvolve computes the min-plus deconvolution
//
//	(f ⊘ g)(t) = sup_{u >= 0} [ f(t+u) - g(u) ],
//
// exactly, for arbitrary piecewise-linear f and g. In network calculus this
// yields the output arrival bound alpha* = alpha ⊘ beta of a flow
// constrained by alpha crossing a server with service curve beta.
//
// The supremum is finite for every t iff f's long-run rate does not exceed
// g's; otherwise ok is false and the curve result is meaningless.
//
// The algorithm exploits that, for fixed t, u -> f(t+u) - g(u) is piecewise
// linear with breakpoints where u hits a breakpoint of g or t+u hits a
// breakpoint of f; the supremum over u is therefore attained at one of
// finitely many candidate families, each of which is a wide-sense-increasing
// piecewise-linear function of t:
//
//   - u pinned at a breakpoint u_j of g (using g's left limit, since g may
//     jump upward there): t -> f(t+u_j) - g(u_j⁻), a left-shift of f;
//   - t+u pinned at a breakpoint x_i of f: t -> f(x_i) - g(x_i - t) for
//     t <= x_i, extended constant afterwards;
//   - u -> ∞ when the ultimate slopes are equal: the affine asymptote.
//
// The result is the pointwise maximum of all candidates.
func Deconvolve(f, g Curve) (res Curve, ok bool) {
	return timedCurveOK(opDeconv, func() (Curve, bool) { return deconvolve(f, g) })
}

func deconvolve(f, g Curve) (res Curve, ok bool) {
	fr, fo := f.UltimateAffine()
	gr, gOff := g.UltimateAffine()
	if fr > gr+absEps(gr) {
		return Zero(), false
	}

	var candidates []Curve

	// Family A: u pinned at breakpoints of g (g's left limit minimizes g).
	for _, u := range g.Breakpoints() {
		gLow := g.AtZero()
		if u > 0 {
			gLow = g.ValueLeft(u)
		}
		candidates = append(candidates, shiftDown(ShiftLeft(f, u), gLow))
	}
	// u = 0 with the exact point value g(0) is included above (gLow(0)=y0).

	// Family B: t+u pinned at breakpoints of f.
	for _, x := range f.Breakpoints() {
		if x == 0 {
			continue // covered by family A at u=0 and t=0 evaluation
		}
		candidates = append(candidates, pinnedCandidate(f, g, x))
	}

	// Family C: asymptote when ultimate rates coincide.
	if math.Abs(fr-gr) <= absEps(gr) {
		off := fo - gOff
		candidates = append(candidates, newOwned(off, []Segment{{0, off, fr}}))
	}

	// Fold with the raw kernel rather than Max: the intermediates belong to
	// this Deconvolve call, not operator calls of their own to be timed.
	res = candidates[0]
	for _, c := range candidates[1:] {
		res = combine(res, c, binMax)
	}
	return res, true
}

// shiftDown subtracts a constant from every value of c (including at the
// origin), preserving monotonicity.
func shiftDown(c Curve, d float64) Curve {
	segs := c.Segments()
	for i := range segs {
		segs[i].Y -= d
	}
	return newOwned(c.AtZero()-d, segs)
}

// pinnedCandidate builds t -> f(x) - g(x - t) on [0, x], extended with the
// constant f(x) - g(0) for t >= x. f(x) uses the (right-continuous) upper
// value; g uses left limits, since the supremum benefits from both.
func pinnedCandidate(f, g Curve, x float64) Curve {
	fx := f.Value(x)
	// Walk g's breakpoints u in (0, x] from largest to smallest; they map to
	// t = x - u from smallest to largest. On each interval the slope of the
	// candidate equals the slope of the g segment being traversed.
	type bp struct{ t, y, slope float64 }
	var pts []bp
	// Start at t = 0: candidate value f(x) - g(x⁻).
	pts = append(pts, bp{0, fx - g.ValueLeft(x), 0})
	gsegs := g.Segments()
	for i := len(gsegs) - 1; i >= 0; i-- {
		u := gsegs[i].X
		if u >= x || u <= 0 {
			continue
		}
		pts = append(pts, bp{x - u, fx - g.ValueLeft(u), 0})
	}
	pts = append(pts, bp{x, fx - g.AtZero(), 0})

	segs := make([]Segment, 0, len(pts))
	for i := range pts {
		var slope float64
		if i+1 < len(pts) {
			dt := pts[i+1].t - pts[i].t
			// Within the interval the candidate follows g linearly; the
			// value just left of the next breakpoint is fx - gRight(u_next).
			uNext := x - pts[i+1].t
			endVal := fx - g.ValueRight(uNext)
			if dt > 0 {
				slope = clampSlope((endVal-pts[i].y)/dt, fx, dt)
			}
		}
		segs = append(segs, Segment{pts[i].t, pts[i].y, slope})
	}
	return newOwned(pts[0].y, segs)
}

// DeconvolveSampled evaluates (f ⊘ g) numerically: the supremum over u is
// taken on an n-point grid over [0, uMax]. It is used to cross-validate the
// exact algorithm in tests; the exact Deconvolve should be preferred.
func DeconvolveSampled(f, g Curve, horizon, uMax float64, n int) (xs, ys []float64) {
	if n < 2 {
		n = 2
	}
	xs = make([]float64, n+1)
	ys = make([]float64, n+1)
	tStep := horizon / float64(n)
	uStep := uMax / float64(n)
	for i := 0; i <= n; i++ {
		t := float64(i) * tStep
		best := f.Value(t) - g.AtZero() // u = 0
		for j := 1; j <= n; j++ {
			u := float64(j) * uStep
			if v := f.Value(t+u) - g.ValueLeft(u); v > best {
				best = v
			}
			if v := f.Value(t+u) - g.Value(u); v > best {
				best = v
			}
		}
		xs[i] = t
		ys[i] = best
	}
	return xs, ys
}
