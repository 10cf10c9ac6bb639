package curve

import (
	"math"
)

// InverseLower returns the lower pseudo-inverse
//
//	f⁻¹(y) = inf { t >= 0 : f(t) >= y },
//
// i.e. the first time the curve reaches level y. It returns +inf when the
// curve never reaches y and 0 for y <= f(0+) (the infimum when the jump at
// the origin already covers y).
func (c Curve) InverseLower(y float64) float64 {
	if y <= c.y0 || y <= c.segs[0].Y {
		return 0
	}
	for i, s := range c.segs {
		if s.Y >= y {
			// The (upward) jump at s.X reaches y.
			return s.X
		}
		end := math.Inf(1)
		if i+1 < len(c.segs) {
			end = c.segs[i+1].X
		}
		if s.Slope > 0 {
			t := s.X + (y-s.Y)/s.Slope
			if t < end {
				return t
			}
		}
	}
	return math.Inf(1)
}

// VDev returns the vertical deviation
//
//	v(f, g) = sup_{t >= 0} [ f(t) - g(t) ],
//
// the network-calculus backlog bound when f is an arrival curve and g a
// service curve. It returns +inf when f's long-run rate exceeds g's.
func VDev(f, g Curve) float64 {
	countOp(opVDev)
	return vDev(f, g)
}

func vDev(f, g Curve) float64 {
	fr, fo := f.UltimateAffine()
	gr, gOff := g.UltimateAffine()
	if fr > gr+absEps(gr) {
		return math.Inf(1)
	}
	sup := f.AtZero() - g.AtZero()
	consider := func(v float64) {
		if v > sup {
			sup = v
		}
	}
	// Every breakpoint of either curve, as it is: merging knots closer than
	// absEps would drop the one the sup sits on.
	for _, c := range [2]Curve{f, g} {
		for _, s := range c.segs {
			x := s.X
			consider(f.Value(x) - g.Value(x))
			consider(f.ValueLeft(x) - g.ValueLeft(x))
			consider(f.ValueRight(x) - g.ValueRight(x))
		}
	}
	if math.Abs(fr-gr) <= absEps(gr) {
		consider(fo - gOff) // asymptotic gap for equal long-run rates
	}
	return sup
}

// HDev returns the horizontal deviation
//
//	h(f, g) = sup_{t >= 0} inf { d >= 0 : f(t) <= g(t+d) },
//
// the network-calculus virtual-delay bound when f is an arrival curve and g
// a service curve. It returns +inf when f's long-run rate exceeds g's, or
// when f exceeds a bounded g.
func HDev(f, g Curve) float64 {
	countOp(opHDev)
	return hDev(f, g)
}

func hDev(f, g Curve) float64 {
	fr, fo := f.UltimateAffine()
	gr, gOff := g.UltimateAffine()
	if fr > gr+absEps(gr) {
		return math.Inf(1)
	}
	sup := 0.0
	unbounded := false
	consider := func(t, y float64) {
		ti := g.InverseLower(y)
		if math.IsInf(ti, 1) {
			unbounded = true
			return
		}
		if d := ti - t; d > sup {
			sup = d
		}
	}
	// Candidate t values: all f breakpoints (both one-sided values), plus
	// the pre-images under f of g's breakpoint levels.
	for _, x := range f.Breakpoints() {
		consider(x, f.Value(x))
		consider(x, f.ValueLeft(x))
		consider(x, f.ValueRight(x)) // catches the jump at the origin
	}
	consider(0, f.AtZero())
	for _, u := range g.Breakpoints() {
		for _, y := range []float64{g.Value(u), g.ValueLeft(u)} {
			t := f.InverseLower(y)
			if math.IsInf(t, 1) {
				continue
			}
			consider(t, y)
			consider(t, f.Value(t))
			consider(t, f.ValueLeft(t))
			consider(t, f.ValueRight(t))
		}
	}
	if math.Abs(fr-gr) <= absEps(gr) && gr > 0 {
		// Asymptotic horizontal gap for equal long-run rates.
		if d := (fo - gOff) / gr; d > sup {
			sup = d
		}
	}
	if unbounded {
		return math.Inf(1)
	}
	return sup
}
