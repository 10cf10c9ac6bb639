package curve

import (
	"math"
	"sort"
)

// binOp identifies a pointwise binary operation for the merge kernels.
type binOp uint8

const (
	binMin binOp = iota
	binMax
	binAdd
	binSub
)

func (op binOp) apply(x, y float64) float64 {
	switch op {
	case binMin:
		return math.Min(x, y)
	case binMax:
		return math.Max(x, y)
	case binAdd:
		return x + y
	default:
		return x - y
	}
}

// needsCrossings reports whether the op's result can kink strictly inside a
// segment pair (min/max switch attaining operand where the curves cross).
func (op binOp) needsCrossings() bool { return op == binMin || op == binMax }

// combine computes op applied pointwise to a and b, dispatching to the
// O(n+m) two-pointer merge kernel, with the sort-based path kept as a
// fallback for pathological inputs (non-finite breakpoints) and as the
// reference implementation for differential tests.
func combine(a, b Curve, op binOp) Curve {
	if !kernelSafe(a) || !kernelSafe(b) {
		return combineSorted(a, b, op)
	}
	return combineMerge(a, b, op)
}

// kernelSafe reports whether the merge kernel's preconditions hold: finite,
// strictly increasing breakpoints (guaranteed by validation except for
// curves deliberately built with infinite abscissas).
func kernelSafe(c Curve) bool {
	for i, s := range c.segs {
		if math.IsInf(s.X, 0) {
			return false
		}
		if i > 0 && !(s.X > c.segs[i-1].X) {
			return false
		}
	}
	return true
}

// combineMerge is the O(n+m+k) two-pointer kernel (k = crossings inserted):
// it walks both already-sorted segment lists once, evaluating each curve
// incrementally at merged breakpoints and, for min/max, inserting the
// crossing abscissa where the attaining operand switches inside an interval.
func combineMerge(a, b Curve, op binOp) Curve {
	return newOwned(op.apply(a.y0, b.y0), mergeSegs(a, b, op))
}

// mergeSegs is combineMerge's segment list before normalization.
//
// A min/max crossing tc with x < tc <= x+absEps(x) cannot be a breakpoint of
// its own: normalize would take it for x. The interval then follows the
// operand that attains past tc, from its value at x, so the result differs
// from the true min/max only on (x, tc). Following the operand that attains
// at x instead would carry its slope across the whole interval, which may be
// unbounded: a GB/s line that is lower only for the first picosecond would
// stand in for a B/s one forever.
func mergeSegs(a, b Curve, op binOp) []Segment {
	as, bs := a.segs, b.segs
	segs := make([]Segment, 0, len(as)+len(bs)+4)
	ia, ib := 0, 0
	x := 0.0
	for {
		sa, sb := as[ia], bs[ib]
		// End of the current interval: the nearest upcoming breakpoint.
		nx := math.Inf(1)
		if ia+1 < len(as) {
			nx = as[ia+1].X
		}
		if ib+1 < len(bs) && bs[ib+1].X < nx {
			nx = bs[ib+1].X
		}
		va := sa.Y + sa.Slope*(x-sa.X)
		vb := sb.Y + sb.Slope*(x-sb.X)
		for {
			y := op.apply(va, vb)
			var slope float64
			tied := false
			switch op {
			case binAdd:
				slope = sa.Slope + sb.Slope
			case binSub:
				slope = sa.Slope - sb.Slope
			default:
				// Min/max: the slope is the attaining operand's; on a tie the
				// lower (for min) or higher (for max) slope wins going forward.
				tied = math.Abs(va-vb) <= absEps(math.Max(math.Abs(va), math.Abs(vb)))
				switch {
				case tied:
					if op == binMin {
						slope = math.Min(sa.Slope, sb.Slope)
					} else {
						slope = math.Max(sa.Slope, sb.Slope)
					}
				case (va < vb) == (op == binMin):
					slope = sa.Slope
				default:
					slope = sb.Slope
				}
			}
			if op.needsCrossings() && sa.Slope != sb.Slope {
				tc := x + (vb-va)/(sa.Slope-sb.Slope)
				if tc > x+absEps(x) && (math.IsInf(nx, 1) || tc < nx-absEps(nx)) {
					// Crossing strictly inside the remaining interval: emit
					// the current piece and restart from the crossing, where
					// the attaining operand flips.
					segs = append(segs, Segment{x, y, slope})
					x = tc
					va = sa.Y + sa.Slope*(x-sa.X)
					vb = sb.Y + sb.Slope*(x-sb.X)
					continue
				}
				if !tied && tc > x && tc <= x+absEps(x) && tc < nx {
					// Collapsed crossing: the operand that attains past tc.
					if (sa.Slope < sb.Slope) == (op == binMin) {
						y, slope = va, sa.Slope
					} else {
						y, slope = vb, sb.Slope
					}
				}
			}
			segs = append(segs, Segment{x, y, slope})
			break
		}
		if math.IsInf(nx, 1) {
			break
		}
		x = nx
		if ia+1 < len(as) && as[ia+1].X <= nx {
			ia++
		}
		if ib+1 < len(bs) && bs[ib+1].X <= nx {
			ib++
		}
	}
	return segs
}

// combineSorted is the original sort-based implementation: merge all
// breakpoints, insert crossings by bisection, and evaluate both curves from
// scratch (O(log n) per point) at every breakpoint. Kept as the reference
// semantics for the differential tests and as the fallback for inputs the
// merge kernel does not accept.
func combineSorted(a, b Curve, op binOp) Curve {
	xs := mergeBreakpoints(a.Breakpoints(), b.Breakpoints())
	if op.needsCrossings() {
		xs = insertCrossings(xs, a, b)
	}
	segs := make([]Segment, 0, len(xs))
	for i, x := range xs {
		var y float64
		if x == 0 {
			y = op.apply(a.Burst(), b.Burst())
		} else {
			y = op.apply(a.Value(x), b.Value(x))
		}
		var slope float64
		if i+1 < len(xs) {
			next := xs[i+1]
			vL := op.apply(a.ValueLeft(next), b.ValueLeft(next))
			slope = clampSlope((vL-y)/(next-x), y, next-x)
		} else {
			// Final ray: both curves are affine past the last breakpoint.
			p1, p2 := x+1, x+2
			slope = op.apply(a.Value(p2), b.Value(p2)) - op.apply(a.Value(p1), b.Value(p1))
			slope = clampSlope(slope, y, math.Inf(1))
		}
		segs = append(segs, Segment{x, y, slope})
	}
	return newOwned(op.apply(a.AtZero(), b.AtZero()), segs)
}

func mergeBreakpoints(a, b []float64) []float64 {
	xs := append(append([]float64(nil), a...), b...)
	sort.Float64s(xs)
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || x-out[len(out)-1] > absEps(x) {
			out = append(out, x)
		}
	}
	return out
}

// insertCrossings adds, between every pair of adjacent breakpoints (and on
// the final ray), the abscissa where the two curves intersect, if any.
func insertCrossings(xs []float64, a, b Curve) []float64 {
	extra := []float64(nil)
	cross := func(lo, hi float64) {
		mid := (lo + hi) / 2
		if math.IsInf(hi, 1) {
			mid = lo + 1
		}
		sa, sb := a.segAt(mid), b.segAt(mid)
		va := sa.Y + sa.Slope*(mid-sa.X)
		vb := sb.Y + sb.Slope*(mid-sb.X)
		ds := sa.Slope - sb.Slope
		if ds == 0 {
			return
		}
		t := mid + (vb-va)/ds
		if t > lo+absEps(lo) && (math.IsInf(hi, 1) || t < hi-absEps(hi)) {
			extra = append(extra, t)
		}
	}
	for i := 0; i+1 < len(xs); i++ {
		cross(xs[i], xs[i+1])
	}
	cross(xs[len(xs)-1], math.Inf(1))
	if len(extra) == 0 {
		return xs
	}
	return mergeBreakpoints(xs, extra)
}

// Min returns the pointwise minimum of a and b. For concave curves that are
// 0 at the origin this equals their min-plus convolution.
func Min(a, b Curve) Curve {
	return combine(a, b, binMin)
}

// Max returns the pointwise maximum of a and b.
func Max(a, b Curve) Curve {
	return combine(a, b, binMax)
}

// Add returns the pointwise sum a + b.
func Add(a, b Curve) Curve {
	return combine(a, b, binAdd)
}

// Sub returns the pointwise difference a - b. The result must still be
// wide-sense increasing (e.g. b is a constant curve, as in the packetizer
// transform); Sub panics otherwise.
func Sub(a, b Curve) Curve { return combine(a, b, binSub) }

// Scale returns k*a for k >= 0.
func Scale(a Curve, k float64) Curve {
	if k < 0 {
		panic("curve: Scale by negative factor")
	}
	segs := a.Segments()
	for i := range segs {
		segs[i].Y *= k
		segs[i].Slope *= k
	}
	return newOwned(a.AtZero()*k, segs)
}

// ShiftRight delays the curve by T >= 0:
//
//	g(t) = a(t-T) for t > T, g(t) = 0 for t <= T
//
// (with g(T) = a(0+) in our right-continuous representation when a jumps at
// the origin). ShiftRight(a, T) equals the min-plus convolution of a with
// the pure-delay curve delta_T.
func ShiftRight(a Curve, T float64) Curve {
	if T < 0 {
		panic("curve: ShiftRight by negative delay")
	}
	if T == 0 {
		return a
	}
	segs := make([]Segment, 0, len(a.segs)+1)
	segs = append(segs, Segment{0, 0, 0})
	for _, s := range a.segs {
		segs = append(segs, Segment{s.X + T, s.Y, s.Slope})
	}
	return newOwned(0, segs)
}

// ShiftLeft advances the curve by T >= 0: g(t) = a(t+T). The value at the
// new origin is a's (right-continuous) value at T.
func ShiftLeft(a Curve, T float64) Curve {
	if T < 0 {
		panic("curve: ShiftLeft by negative amount")
	}
	if T == 0 {
		return a
	}
	src := a.segs
	segs := make([]Segment, 0, len(src))
	for _, s := range src {
		switch {
		case s.X <= T:
			// This segment covers (or ends before) the new origin; (re)set
			// the head segment to its restriction starting at T.
			head := Segment{0, s.Y + s.Slope*(T-s.X), s.Slope}
			if len(segs) == 0 {
				segs = append(segs, head)
			} else {
				segs[0] = head
			}
		default:
			segs = append(segs, Segment{s.X - T, s.Y, s.Slope})
		}
	}
	return newOwned(segs[0].Y, segs)
}

// AddBurst adds c to the curve for all t > 0, leaving the value at 0
// unchanged — the packetizer arrival transform alpha(t) + l_max·1_{t>0}.
func AddBurst(a Curve, c float64) Curve {
	if c < 0 {
		panic("curve: AddBurst with negative c")
	}
	segs := a.Segments()
	for i := range segs {
		segs[i].Y += c
	}
	return newOwned(a.AtZero(), segs)
}

// SubConstantPositive returns [a - c]⁺ for c >= 0 — the packetizer service
// transform beta'(t) = [beta(t) - l_max]⁺.
func SubConstantPositive(a Curve, c float64) Curve {
	if c < 0 {
		panic("curve: SubConstantPositive with negative c")
	}
	if c == 0 {
		return a
	}
	tc := a.InverseLower(c)
	if math.IsInf(tc, 1) {
		return Zero() // a never reaches c
	}
	if tc == 0 {
		// Positive from the origin (a(0+) >= c); every later value is >= c
		// by monotonicity.
		segs := a.Segments()
		for i := range segs {
			segs[i].Y = math.Max(0, segs[i].Y-c)
		}
		return newOwned(math.Max(0, a.AtZero()-c), segs)
	}
	segs := []Segment{{0, 0, 0}}
	at := a.segAt(tc)
	segs = append(segs, Segment{tc, math.Max(0, a.Value(tc)-c), at.Slope})
	for _, s := range a.segs {
		if s.X > tc {
			segs = append(segs, Segment{s.X, s.Y - c, s.Slope})
		}
	}
	return newOwned(0, segs)
}
