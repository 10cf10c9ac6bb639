package curve

import "math"

// ConcaveHull returns the least concave majorant of c: the smallest concave
// curve dominating c pointwise on [0, ∞). The value at exactly t = 0 is
// kept (concavity in this package permits a jump at the origin), so the
// hull of an arrival envelope is again a valid — if looser — envelope:
// any flow bounded by c is bounded by ConcaveHull(c).
//
// This is what makes residual-service subtraction total: a non-concave
// cross envelope (a staircase, a composite of packetized flows) can always
// be replaced by its hull before subtracting, yielding a sound residual
// instead of a starvation verdict.
func ConcaveHull(c Curve) Curve {
	if c.IsConcave() {
		return c
	}
	countOp(opConcaveHull)
	return concaveHull(c)
}

func concaveHull(c Curve) Curve {
	// Candidate vertices are the segment start points (X_i, Y_i). Interior
	// end-values need no separate points: the curve is wide-sense
	// increasing, so a segment's end value is dominated by the next
	// segment's Y, and a concave function dominating two points dominates
	// the chord (hence the affine piece) between them.
	type pt struct{ x, y float64 }
	pts := make([]pt, len(c.segs))
	for i, s := range c.segs {
		pts[i] = pt{s.X, s.Y}
	}
	slope := func(a, b pt) float64 { return (b.y - a.y) / (b.x - a.x) }

	// Upper-hull Graham scan, left to right. The first point (the origin
	// burst) is never popped, so hull(0+) = c(0+).
	hull := pts[:0]
	for _, p := range pts {
		for len(hull) >= 2 && slope(hull[len(hull)-2], hull[len(hull)-1]) <= slope(hull[len(hull)-1], p) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Final ray: treat the ultimate slope as a vertex at infinity. Each pop
	// moves to a vertex whose ray intercept (y - s∞·x) is no smaller, so
	// the surviving vertex's ray dominates the popped vertices and the
	// curve's own final ray.
	sInf := c.UltimateSlope()
	for len(hull) >= 2 && slope(hull[len(hull)-2], hull[len(hull)-1]) <= sInf {
		hull = hull[:len(hull)-1]
	}

	segs := make([]Segment, len(hull))
	for i, v := range hull {
		sl := sInf
		if i+1 < len(hull) {
			sl = slope(v, hull[i+1])
		}
		segs[i] = Segment{v.x, v.y, math.Max(0, sl)}
	}
	return newOwned(c.y0, segs)
}
