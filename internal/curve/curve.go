// Package curve implements the piecewise-linear function algebra that
// underlies deterministic network calculus: wide-sense-increasing curves on
// [0, +inf) with the min-plus operations (minimum, maximum, addition,
// min-plus convolution and deconvolution) and the deviation measures
// (horizontal deviation = delay bound, vertical deviation = backlog bound).
//
// # Representation
//
// A Curve is a finite sequence of affine segments plus an explicit value at
// t = 0. Segment i starts at X_i (X_0 = 0) with value Y_i and slope S_i and
// extends to the start of segment i+1; the final segment extends to +inf.
// The curve is right-continuous on (0, inf): Value(X_i) = Y_i. A jump at the
// origin — ubiquitous in network calculus (a leaky-bucket arrival curve has
// alpha(0) = 0 but alpha(0+) = b) — is expressed by y0 < segs[0].Y.
//
// All curves are wide-sense increasing with non-negative slopes; constructors
// and operations preserve this invariant.
package curve

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// eps is the base relative/absolute tolerance used when comparing breakpoint
// coordinates, values, and slopes. All comparisons derived from it are
// relative-or-absolute (see absEps and slopeTol), so curves at byte/sec
// magnitudes (1e9 slopes, 1e9 values) normalize as reliably as unit-scale
// ones.
const eps = 1e-9

// Segment is one affine piece of a Curve: on [X, nextX) the curve has value
// Y + Slope*(t-X).
type Segment struct {
	X     float64 // start abscissa
	Y     float64 // value at X (right limit when X == 0)
	Slope float64 // non-negative slope
}

// Curve is a wide-sense-increasing piecewise-linear function on [0, +inf).
// Curves are immutable after construction and carry a structural digest
// (see Digest) computed once by the constructor. The zero value of Curve is
// not valid; use a constructor.
type Curve struct {
	y0     float64 // value at exactly t = 0
	segs   []Segment
	digest uint64 // structural hash of the normalized representation
}

// New builds a curve from an explicit value at zero and a segment list.
// Segments must start at X = 0, be strictly increasing in X, have
// non-negative slopes, and be wide-sense increasing overall. New panics on a
// malformed description; it is intended for package-internal constructors
// and tests (use the named constructors for common shapes).
//
// New copies segs; package-internal code that owns its slice uses newOwned
// to skip the copy.
func New(y0 float64, segs []Segment) Curve {
	return newOwned(y0, append([]Segment(nil), segs...))
}

// newOwned is the internal no-copy constructor: it takes ownership of segs,
// normalizes, validates, and computes the structural digest. Every Curve in
// the package is built through here or build so the digest invariant holds
// globally.
func newOwned(y0 float64, segs []Segment) Curve {
	c, err := build(y0, segs)
	if err != nil {
		panic("curve: " + err.Error())
	}
	return c
}

// build is newOwned returning the validation error instead of panicking, for
// kernels that have another way to answer when their result is malformed.
func build(y0 float64, segs []Segment) (Curve, error) {
	c := Curve{y0: y0, segs: segs}
	c.normalize()
	if err := c.validate(); err != nil {
		return Curve{}, err
	}
	c.digest = digestCurve(c.y0, c.segs)
	return c, nil
}

// normalize clamps floating-point slope noise, merges adjacent collinear
// segments, and drops zero-length segments that carry no jump.
func (c *Curve) normalize() {
	if len(c.segs) == 0 {
		return
	}
	// Clamp slightly-negative slopes produced by catastrophic cancellation
	// in upstream arithmetic (value differences divided by short intervals).
	// The tolerance scales with the segment's value magnitude over its own
	// span, so GB-scale curves with sub-microsecond breakpoints are handled
	// the same as unit-scale ones; genuinely decreasing segments still fail
	// validation below.
	for i := range c.segs {
		s := &c.segs[i]
		if s.Slope < 0 {
			dt := math.Inf(1)
			if i+1 < len(c.segs) {
				dt = c.segs[i+1].X - s.X
			}
			if -s.Slope <= slopeTol(s.Slope, 0, s.Y, dt) {
				s.Slope = 0
			}
		}
	}
	out := c.segs[:0]
	for i, s := range c.segs {
		if len(out) > 0 {
			p := &out[len(out)-1]
			endV := p.Y + p.Slope*(s.X-p.X)
			if math.Abs(s.X-p.X) <= absEps(s.X) {
				// Coincident start: keep the later definition (it
				// overrides), preserving any jump it encodes.
				*p = s
				continue
			}
			// Collinear continuation: merge when the value matches and the
			// slopes agree to within what is distinguishable over this
			// segment's own span at its value magnitude.
			dt := math.Inf(1)
			if i+1 < len(c.segs) {
				dt = c.segs[i+1].X - s.X
			}
			if math.Abs(s.Y-endV) <= absEps(endV) && math.Abs(s.Slope-p.Slope) <= slopeTol(s.Slope, p.Slope, s.Y, dt) {
				continue
			}
		}
		out = append(out, s)
	}
	c.segs = out
}

func absEps(v float64) float64 { return eps * (1 + math.Abs(v)) }

// slopeTol is the relative-or-absolute tolerance for comparing slopes s1 and
// s2 on a segment of span dt at value magnitude y. Two slope contributions
// are indistinguishable: noise proportional to the slopes themselves, and
// noise from value-difference cancellation, which is relative to the value
// magnitude divided by the span. The latter term is what makes GB/s curves
// (|y| ~ 1e9) with microsecond spans normalize correctly — their slope noise
// is orders of magnitude above any absolute cutoff.
func slopeTol(s1, s2, y, dt float64) float64 {
	t := 8 * eps * (1 + math.Abs(s1) + math.Abs(s2))
	if dt > 0 && !math.IsInf(dt, 1) {
		t += 8 * eps * (1 + math.Abs(y)) / dt
	}
	return t
}

// jumpTol is how far below the extension of segment p a segment starting at
// x may sit and still count as continuous with it. normalize measures every
// segment against the last one it kept, so once it has merged near-collinear
// segments into p the next breakpoint is held to p's line, not to the line
// of the dropped segment it actually continued: on top of its own absEps it
// inherits the dropped segment's value offset (another absEps) and its slope
// difference run over the span (slopeTol·dt). The factor 2 covers the
// second-order terms. The allowance stays near 1e-8 of the value, so a curve
// that genuinely decreases still fails validation.
func jumpTol(p Segment, x float64) float64 {
	dt := x - p.X
	endV := p.Y + p.Slope*dt
	return 2 * (absEps(endV) + slopeTol(p.Slope, p.Slope, endV, dt)*dt)
}

// clampSlope zeroes a computed slope that is negative only by cancellation
// noise (relative to value magnitude y over span dt); larger negatives pass
// through for validation to reject.
func clampSlope(slope, y, dt float64) float64 {
	if slope < 0 && -slope <= slopeTol(slope, 0, y, dt) {
		return 0
	}
	return slope
}

func (c *Curve) validate() error {
	if len(c.segs) == 0 {
		return fmt.Errorf("no segments")
	}
	if c.segs[0].X != 0 {
		return fmt.Errorf("first segment must start at 0, got %g", c.segs[0].X)
	}
	if c.y0 > c.segs[0].Y+absEps(c.y0) {
		return fmt.Errorf("downward jump at origin: y0=%g > f(0+)=%g", c.y0, c.segs[0].Y)
	}
	for i, s := range c.segs {
		if s.Slope < 0 {
			return fmt.Errorf("segment %d has negative slope %g", i, s.Slope)
		}
		if math.IsNaN(s.X) || math.IsNaN(s.Y) || math.IsNaN(s.Slope) {
			return fmt.Errorf("segment %d contains NaN", i)
		}
		if i > 0 {
			p := c.segs[i-1]
			if s.X <= p.X {
				return fmt.Errorf("segment %d X=%g not increasing past %g", i, s.X, p.X)
			}
			endV := p.Y + p.Slope*(s.X-p.X)
			if s.Y < endV-jumpTol(p, s.X) {
				return fmt.Errorf("downward jump at X=%g: %g -> %g", s.X, endV, s.Y)
			}
		}
	}
	return nil
}

// --- Constructors ---------------------------------------------------------

// Zero returns the identically-zero curve.
func Zero() Curve {
	return newOwned(0, []Segment{{0, 0, 0}})
}

// Constant returns the curve that is 0 at t=0 and c for all t>0 (c >= 0).
// For c == 0 it is the zero curve.
func Constant(c float64) Curve {
	return newOwned(0, []Segment{{0, c, 0}})
}

// Affine returns the leaky-bucket (token-bucket) arrival curve
//
//	alpha(t) = rate*t + burst for t > 0, alpha(0) = 0.
//
// This is the curve the paper uses for arrival constraints.
func Affine(rate, burst float64) Curve {
	return newOwned(0, []Segment{{0, burst, rate}})
}

// RateLatency returns the rate-latency service curve
//
//	beta(t) = rate * max(0, t-latency).
//
// A positive latency below MinLatency is rounded up to it.
func RateLatency(rate, latency float64) Curve {
	if latency <= 0 {
		return newOwned(0, []Segment{{0, 0, rate}})
	}
	return newOwned(0, []Segment{{0, 0, 0}, {math.Max(latency, MinLatency), 0, rate}})
}

// MinLatency is the shortest positive latency RateLatency represents.
// normalize takes two breakpoints within absEps of each other for one, so a
// knee nearer the origin than that would overwrite the origin segment (and
// fail validation). Rounding goes up, never down to zero: a service curve may
// only get lower.
const MinLatency = 2 * eps

// Line returns the curve rate*t (an affine curve with zero burst).
func Line(rate float64) Curve { return Affine(rate, 0) }

// Step returns the curve that is 0 on [0, at) and height for t >= at
// (right-continuous). For at <= 0 it equals Constant(height).
func Step(height, at float64) Curve {
	if at <= 0 {
		return Constant(height)
	}
	return newOwned(0, []Segment{{0, 0, 0}, {at, height, 0}})
}

// Bucket is a (rate, burst) leaky-bucket descriptor for Envelope.
type Bucket struct {
	Rate  float64
	Burst float64
}

// Envelope builds the concave arrival envelope min_i(Rate_i·t + Burst_i)
// over one or more leaky buckets, with f(0) = 0, in a single O(k log k)
// lower-envelope construction instead of folding Min over k affine curves.
// All rates and bursts must be non-negative and at least one bucket is
// required.
func Envelope(buckets []Bucket) Curve {
	if len(buckets) == 0 {
		panic("curve: Envelope needs at least one bucket")
	}
	if len(buckets) == 1 {
		return Affine(buckets[0].Rate, buckets[0].Burst)
	}
	// Lower envelope of lines y = r·t + b on t >= 0, via a monotone
	// convex-hull sweep: sort by rate descending (envelope pieces appear in
	// decreasing slope order from t = 0 outward), keep min burst among equal
	// rates, then stack-prune lines that never attain the minimum.
	lines := append([]Bucket(nil), buckets...)
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Rate != lines[j].Rate {
			return lines[i].Rate > lines[j].Rate
		}
		return lines[i].Burst < lines[j].Burst
	})
	// hull[k] holds envelope lines in decreasing rate order; start[k] is
	// where hull[k] becomes the minimum.
	hull := make([]Bucket, 0, len(lines))
	start := make([]float64, 0, len(lines))
	for _, l := range lines {
		if len(hull) > 0 && l.Rate == hull[len(hull)-1].Rate {
			continue // same rate, larger-or-equal burst: dominated
		}
		for len(hull) > 0 {
			top := hull[len(hull)-1]
			if l.Burst >= top.Burst {
				// Flatter and no cheaper at t=0 ... still wins eventually
				// (strictly smaller rate), at the crossing below.
				x := (l.Burst - top.Burst) / (top.Rate - l.Rate)
				if x > start[len(start)-1] {
					hull = append(hull, l)
					start = append(start, x)
					break
				}
				// Crossing at or before top's own start: top never attains
				// the minimum; pop and retry against the previous line.
				hull = hull[:len(hull)-1]
				start = start[:len(start)-1]
				continue
			}
			// Cheaper at t=0 and flatter: top is dominated everywhere.
			hull = hull[:len(hull)-1]
			start = start[:len(start)-1]
		}
		if len(hull) == 0 {
			hull = append(hull, l)
			start = append(start, 0)
		}
	}
	segs := make([]Segment, len(hull))
	for i, l := range hull {
		segs[i] = Segment{X: start[i], Y: l.Rate*start[i] + l.Burst, Slope: l.Rate}
	}
	return newOwned(0, segs)
}

// Staircase returns the packetized-flow staircase arrival curve
//
//	f(t) = height * (floor(t/period) + 1)  for t > 0,  f(0) = 0,
//
// i.e. one packet of size height released every period, with the whole first
// packet available immediately after 0. The explicit staircase is kept for n
// steps; afterwards the curve continues with the average slope
// height/period (a conservative, wide-sense-increasing continuation).
// period and height must be positive.
func Staircase(height, period float64, n int) Curve {
	if height <= 0 || period <= 0 {
		panic("curve: Staircase needs positive height and period")
	}
	if n < 1 {
		n = 1
	}
	segs := make([]Segment, 0, n+1)
	for k := 0; k < n; k++ {
		segs = append(segs, Segment{float64(k) * period, float64(k+1) * height, 0})
	}
	segs = append(segs, Segment{float64(n) * period, float64(n+1) * height, height / period})
	return newOwned(0, segs)
}

// FromPoints builds a continuous curve passing through the given (x, y)
// points, linearly interpolated, continuing after the last point with
// finalSlope. Points must be sorted by strictly increasing x with x[0] == 0
// and non-decreasing y.
func FromPoints(xs, ys []float64, finalSlope float64) Curve {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("curve: FromPoints needs matching non-empty xs, ys")
	}
	segs := make([]Segment, len(xs))
	for i := range xs {
		var slope float64
		if i+1 < len(xs) {
			dx := xs[i+1] - xs[i]
			if dx <= 0 {
				panic("curve: FromPoints xs must be strictly increasing")
			}
			slope = (ys[i+1] - ys[i]) / dx
		} else {
			slope = finalSlope
		}
		segs[i] = Segment{xs[i], ys[i], slope}
	}
	return newOwned(ys[0], segs)
}

// --- Inspection -----------------------------------------------------------

// Value returns f(t). For t < 0 it returns 0 (the conventional extension in
// network calculus).
func (c Curve) Value(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 {
		return c.y0
	}
	s := c.segAt(t)
	return s.Y + s.Slope*(t-s.X)
}

// ValueRight returns the right limit f(t+).
func (c Curve) ValueRight(t float64) float64 {
	if t < 0 {
		return 0
	}
	s := c.segAt(math.Nextafter(t, math.Inf(1)))
	if t >= s.X {
		return s.Y + s.Slope*(t-s.X)
	}
	return s.Y
}

// ValueLeft returns the left limit f(t-) for t > 0, and f(0) for t <= 0.
func (c Curve) ValueLeft(t float64) float64 {
	if t <= 0 {
		return c.y0
	}
	// Find the segment strictly containing points < t.
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X >= t })
	// segs[i-1] covers just left of t (i >= 1 because segs[0].X == 0 < t).
	s := c.segs[i-1]
	return s.Y + s.Slope*(t-s.X)
}

// segAt returns the segment covering t (t > 0).
func (c Curve) segAt(t float64) Segment {
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X > t })
	return c.segs[i-1]
}

// AtZero returns f(0).
func (c Curve) AtZero() float64 { return c.y0 }

// Burst returns f(0+), the instantaneous jump at the origin (the burst b of
// a leaky-bucket arrival curve).
func (c Curve) Burst() float64 { return c.segs[0].Y }

// UltimateSlope returns the slope of the final (infinite) segment — the
// long-run rate of the curve.
func (c Curve) UltimateSlope() float64 { return c.segs[len(c.segs)-1].Slope }

// UltimateAffine returns (rate, offset) such that f(t) = rate*t + offset for
// all t >= the last breakpoint.
func (c Curve) UltimateAffine() (rate, offset float64) {
	s := c.segs[len(c.segs)-1]
	return s.Slope, s.Y - s.Slope*s.X
}

// LastBreak returns the abscissa of the last breakpoint.
func (c Curve) LastBreak() float64 { return c.segs[len(c.segs)-1].X }

// Latency returns the largest T such that f(t) = 0 for all t <= T (the
// latency of a rate-latency service curve). It returns 0 when f(0+) > 0 and
// +inf for the identically-zero curve.
func (c Curve) Latency() float64 {
	if c.segs[0].Y > 0 {
		return 0
	}
	for _, s := range c.segs {
		if s.Y > 0 {
			// Jump to positive value at s.X: latency is just below s.X,
			// report s.X.
			return s.X
		}
		if s.Slope > 0 {
			return s.X
		}
	}
	return math.Inf(1)
}

// ZeroAtOrigin returns a copy of the curve with the value at t = 0 forced to
// zero. Min-plus deconvolution yields curves with f(0) = sup(f-g) > 0; when
// such a curve is reinterpreted as an arrival constraint (which only ever
// applies over positive-length windows), the conventional normalization is
// f(0) = 0.
func (c Curve) ZeroAtOrigin() Curve {
	if c.y0 == 0 {
		return c // immutable, digest unchanged: safe to share
	}
	return newOwned(0, append([]Segment(nil), c.segs...))
}

// Segments returns a copy of the curve's segment list.
func (c Curve) Segments() []Segment { return append([]Segment(nil), c.segs...) }

// Breakpoints returns the abscissas of all breakpoints (including 0).
func (c Curve) Breakpoints() []float64 {
	xs := make([]float64, len(c.segs))
	for i, s := range c.segs {
		xs[i] = s.X
	}
	return xs
}

// IsConcave reports whether the curve is concave on [0, inf) (slopes
// non-increasing, no upward jumps except possibly at the origin).
func (c Curve) IsConcave() bool {
	for i := 1; i < len(c.segs); i++ {
		p, s := c.segs[i-1], c.segs[i]
		if s.Slope > p.Slope+absEps(p.Slope) {
			return false
		}
		endV := p.Y + p.Slope*(s.X-p.X)
		if s.Y > endV+absEps(endV) { // interior upward jump breaks concavity
			return false
		}
	}
	return true
}

// IsConvex reports whether the curve is convex on [0, inf): slopes
// non-decreasing, continuous everywhere including the origin (y0 == f(0+)).
func (c Curve) IsConvex() bool {
	if c.segs[0].Y > c.y0+absEps(c.y0) {
		return false
	}
	for i := 1; i < len(c.segs); i++ {
		p, s := c.segs[i-1], c.segs[i]
		if s.Slope < p.Slope-absEps(p.Slope) {
			return false
		}
		endV := p.Y + p.Slope*(s.X-p.X)
		if s.Y > endV+absEps(endV) {
			return false
		}
	}
	return true
}

// Equal reports whether two curves agree to within tolerance at all
// breakpoints of both and in their ultimate affine behavior. Equal digests
// short-circuit to true: they mean structurally identical normalized
// representations (up to the accepted 2^-64 collision risk).
func (c Curve) Equal(d Curve) bool {
	if c.digest == d.digest && len(c.segs) > 0 && len(d.segs) > 0 {
		return true
	}
	if math.Abs(c.y0-d.y0) > absEps(c.y0) {
		return false
	}
	for _, x := range append(c.Breakpoints(), d.Breakpoints()...) {
		cv, dv := c.Value(x), d.Value(x)
		if math.Abs(cv-dv) > 1e-6*(1+math.Abs(cv)) {
			return false
		}
		cv, dv = c.ValueRight(x), d.ValueRight(x)
		if math.Abs(cv-dv) > 1e-6*(1+math.Abs(cv)) {
			return false
		}
	}
	cr, co := c.UltimateAffine()
	dr, do := d.UltimateAffine()
	return math.Abs(cr-dr) <= 1e-6*(1+math.Abs(cr)) && math.Abs(co-do) <= 1e-6*(1+math.Abs(co))
}

// String renders a compact human-readable description.
func (c Curve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "curve{f(0)=%g", c.y0)
	for _, s := range c.segs {
		fmt.Fprintf(&b, "; [%g: %g +%g·t]", s.X, s.Y, s.Slope)
	}
	b.WriteString("}")
	return b.String()
}

// Sample evaluates the curve at n+1 evenly spaced points on [0, horizon],
// returning parallel xs, ys slices (useful for plotting/export).
func (c Curve) Sample(horizon float64, n int) (xs, ys []float64) {
	if n < 1 {
		n = 1
	}
	xs = make([]float64, n+1)
	ys = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		x := horizon * float64(i) / float64(n)
		xs[i] = x
		ys[i] = c.Value(x)
	}
	return xs, ys
}
