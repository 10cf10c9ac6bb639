package curve

import "math"

// Test references: operators no production code calls, kept beside the
// tests that cross-check the exact kernels against them.

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

// ScaleTime returns g(t) = a(t/k) for k > 0 (time stretched by factor k):
// breakpoints move to k*X and slopes divide by k.
func ScaleTime(a Curve, k float64) Curve {
	if k <= 0 {
		panic("curve: ScaleTime by non-positive factor")
	}
	segs := a.Segments()
	for i := range segs {
		segs[i].X *= k
		segs[i].Slope /= k
	}
	return newOwned(a.AtZero(), segs)
}

// IsSubAdditive reports whether f(s+t) <= f(s) + f(t) holds on a sample
// grid over [0, horizon] (a practical check; exactness would require
// comparing f with its closure).
func IsSubAdditive(f Curve, horizon float64, n int) bool {
	if n < 2 {
		n = 2
	}
	for i := 0; i <= n; i++ {
		s := horizon * float64(i) / float64(n)
		for j := 0; j <= n-i; j++ {
			t := horizon * float64(j) / float64(n)
			if f.Value(s+t) > f.Value(s)+f.Value(t)+1e-6*(1+f.Value(s+t)) {
				return false
			}
		}
	}
	return true
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
