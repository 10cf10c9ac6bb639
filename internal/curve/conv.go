package curve

import (
	"math"
)

// Convolve computes the min-plus convolution
//
//	(f ⊗ g)(t) = inf_{0 <= s <= t} [ f(s) + g(t-s) ].
//
// Exact closed forms are used for the families that cover deterministic
// network calculus practice, tried in this order:
//
//   - both curves convex (rate-latency service curves and their
//     concatenations): computed by the slope-merge rule — segments of both
//     curves are traversed in order of increasing slope;
//   - both curves a pure delay convolved with a concave curve that is zero
//     at the origin, f = δ_Tf ⊗ cf and g = δ_Tg ⊗ cg (arrival curves,
//     rate-latency curves, FIFO left-over members after the packetizer,
//     any of them delayed): f ⊗ g = ShiftRight(min(cf, cg), Tf+Tg), since
//     pure delays add and concave curves zero at 0 convolve to their
//     minimum.
//
// Any other shape is handled exactly as well, by the general
// piece-decomposition algorithm (ConvolveExact), which also answers when the
// second closed form's shifted minimum has knees closer together than
// absEps resolves at offset Tf+Tg. ConvolveSampled remains available for
// cross-validation.
func Convolve(f, g Curve) Curve {
	if f.IsConvex() && g.IsConvex() {
		return convolveConvex(f, g)
	}
	if c, ok := convolveDelayedConcave(f, g); ok {
		return c
	}
	// General shapes: the exact piece-decomposition algorithm.
	return ConvolveExact(f, g)
}

// convolveDelayedConcave is the closed form δ_Tf ⊗ cf ⊗ δ_Tg ⊗ cg =
// ShiftRight(min(cf, cg), Tf+Tg). ok is false when an operand is not of that
// form, or when the result does not validate.
func convolveDelayedConcave(f, g Curve) (Curve, bool) {
	tf, cf, ok := delayedConcave(f)
	if !ok {
		return Curve{}, false
	}
	tg, cg, ok := delayedConcave(g)
	if !ok {
		return Curve{}, false
	}
	segs := mergeSegs(cf, cg, binMin)
	if t := tf + tg; t > 0 {
		// The minimum is normalized at its own scale first, as ShiftRight
		// would receive it, then shifted in place behind a zero segment.
		m := Curve{segs: segs}
		m.normalize()
		segs = append(m.segs, Segment{})
		copy(segs[1:], segs)
		segs[0] = Segment{}
		for i := 1; i < len(segs); i++ {
			segs[i].X += t
		}
	}
	c, err := build(0, segs)
	return c, err == nil
}

// delayedConcave writes c as δ_T ⊗ cc with cc concave and zero at the origin:
// c is zero up to T, then concave, with a jump at T allowed. cc is returned
// unvalidated, for mergeSegs only.
func delayedConcave(c Curve) (T float64, cc Curve, ok bool) {
	if c.y0 != 0 {
		return 0, Curve{}, false
	}
	cc = c
	if s := c.segs; len(s) > 1 && s[0].Y == 0 && s[0].Slope == 0 {
		T = s[1].X
		cc = Curve{segs: make([]Segment, len(s)-1)}
		for i, seg := range s[1:] {
			cc.segs[i] = Segment{seg.X - T, seg.Y, seg.Slope}
		}
	}
	return T, cc, cc.IsConcave() && kernelSafe(cc)
}

const autoSamples = 2048

// autoHorizon picks a sampling horizon comfortably past all breakpoints of
// both curves, where each is in its ultimate affine regime.
func autoHorizon(f, g Curve) float64 {
	h := 4 * (f.LastBreak() + g.LastBreak())
	if h <= 0 {
		h = 1
	}
	return h
}

// convolveConvex implements the exact slope-merge rule for convex curves:
// the convolution traverses the combined segments in increasing slope order,
// starting from f(0)+g(0). Convexity means each curve's finite pieces are
// already sorted by slope, so the traversal is a two-pointer merge of the
// two segment lists — O(n+m), no sort.
func convolveConvex(f, g Curve) Curve {
	fs, gs := f.segs, g.segs
	ultimate := math.Min(f.UltimateSlope(), g.UltimateSlope())
	start := f.AtZero() + g.AtZero()
	t, y := 0.0, start
	segs := make([]Segment, 0, len(fs)+len(gs))
	i, j := 0, 0 // finite pieces are fs[:len-1], gs[:len-1]
	for i+1 < len(fs) || j+1 < len(gs) {
		var slope, length float64
		if i+1 < len(fs) && (j+1 >= len(gs) || fs[i].Slope <= gs[j].Slope) {
			slope, length = fs[i].Slope, fs[i+1].X-fs[i].X
			i++
		} else {
			slope, length = gs[j].Slope, gs[j+1].X-gs[j].X
			j++
		}
		if slope >= ultimate {
			break // the infinite minimum-slope ray dominates from here on
		}
		segs = append(segs, Segment{t, y, slope})
		t += length
		y += length * slope
	}
	segs = append(segs, Segment{t, y, ultimate})
	return newOwned(start, segs)
}

// ConvolveSampled evaluates (f ⊗ g) numerically on an n-point grid over
// [0, horizon] and returns the piecewise-linear interpolant, extended past
// the horizon with the exact ultimate slope min(f∞, g∞). The infimum at
// each grid point considers every grid split plus the exact endpoints s = 0
// and s = t (so origin jumps are honored). Complexity O(n²).
func ConvolveSampled(f, g Curve, horizon float64, n int) Curve {
	if n < 2 {
		n = 2
	}
	if horizon <= 0 {
		horizon = 1
	}
	xs := make([]float64, n+1)
	ys := make([]float64, n+1)
	step := horizon / float64(n)
	for i := 0; i <= n; i++ {
		t := float64(i) * step
		xs[i] = t
		best := math.Inf(1)
		for j := 0; j <= i; j++ {
			s := float64(j) * step
			if v := f.Value(s) + g.Value(t-s); v < best {
				best = v
			}
		}
		// Exact endpoints (the grid already contains them, but Value(0)
		// uses y0, which encodes the origin jump correctly).
		if v := f.AtZero() + g.Value(t); v < best {
			best = v
		}
		if v := f.Value(t) + g.AtZero(); v < best {
			best = v
		}
		ys[i] = best
	}
	// Enforce monotonicity against floating noise.
	for i := 1; i <= n; i++ {
		if ys[i] < ys[i-1] {
			ys[i] = ys[i-1]
		}
	}
	return FromPoints(xs, ys, math.Min(f.UltimateSlope(), g.UltimateSlope()))
}

// ConvolveAll folds Convolve over a non-empty list of curves (the
// concatenated end-to-end service curve of a chain of nodes).
func ConvolveAll(cs []Curve) Curve {
	if len(cs) == 0 {
		panic("curve: ConvolveAll of empty list")
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = Convolve(out, c)
	}
	return out
}

// MaxPlusConvolve computes the max-plus convolution
//
//	(f ⊕ g)(t) = sup_{0 <= s <= t} [ f(s) + g(t-s) ],
//
// exactly when both curves are convex with value 0 at the origin (then it
// equals max(f, g) — the dual of the concave min-plus rule) and by sampling
// otherwise.
func MaxPlusConvolve(f, g Curve) Curve {
	if f.IsConvex() && g.IsConvex() && f.AtZero() == 0 && g.AtZero() == 0 {
		return Max(f, g)
	}
	horizon := autoHorizon(f, g)
	n := autoSamples
	xs := make([]float64, n+1)
	ys := make([]float64, n+1)
	step := horizon / float64(n)
	for i := 0; i <= n; i++ {
		t := float64(i) * step
		xs[i] = t
		best := math.Inf(-1)
		for j := 0; j <= i; j++ {
			s := float64(j) * step
			if v := f.Value(s) + g.Value(t-s); v > best {
				best = v
			}
		}
		ys[i] = best
	}
	for i := 1; i <= n; i++ {
		if ys[i] < ys[i-1] {
			ys[i] = ys[i-1]
		}
	}
	return FromPoints(xs, ys, math.Max(f.UltimateSlope(), g.UltimateSlope()))
}
