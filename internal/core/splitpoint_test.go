package core

import (
	"math"
	"sort"

	"streamcalc/internal/curve"
)

// The exact split-point reference for the chain bound: the concatenation
// f₁ ⊗ … ⊗ fₙ of the curve engine's own per-node members, evaluated point by
// point as the infimum of Σ fₖ(sₖ) over Σ sₖ = t, and the arrival α′ taken
// straight from the buckets. It folds nothing, so neither the chain
// evaluator's closed form nor the engine's convolution kernels are in it.

// splitChain is a chain's members, as ConcatenatedBeta delays them.
type splitChain []curve.Curve

// engineMembers returns the members of a's chain: each node's packetized
// service curve delayed by its aggregation delay.
func engineMembers(a *Analysis) splitChain {
	out := make(splitChain, len(a.Nodes))
	for i, na := range a.Nodes {
		out[i] = curve.ShiftRight(na.Beta, secs(na.AggregationDelay))
	}
	return out
}

// at returns (f₁ ⊗ … ⊗ fₙ)(t) and its left limit at t > 0. The function
// Σ fₖ(sₖ) is piecewise linear on the simplex Σ sₖ = t, with kinks where an
// sₖ crosses a breakpoint of fₖ, so the infimum is taken at a vertex — every
// coordinate but a free one on a breakpoint — as a value or as a limit. At t
// itself the coordinates' moves cancel: all exact, or one from the right and
// the others from the left. Just left of t the free one comes from the left
// too.
func (c splitChain) at(t float64) (value, left float64) {
	value, left = math.Inf(1), math.Inf(1)
	n := len(c)
	xs := make([]float64, n)
	var rec func(k int, free int, sum float64)
	rec = func(k, free int, sum float64) {
		if k == n {
			r := t - sum
			if r < 0 {
				return
			}
			xs[free] = r
			all, lefts := 0.0, 0.0
			for i, f := range c {
				all += f.Value(xs[i])
				lefts += f.ValueLeft(xs[i]) // f(0) at the origin
			}
			value = math.Min(value, all)
			for i, f := range c { // i approaches from the right
				value = math.Min(value, lefts-f.ValueLeft(xs[i])+f.ValueRight(xs[i]))
			}
			if r > 0 || sum > 0 {
				left = math.Min(left, lefts)
			}
			return
		}
		if k == free {
			rec(k+1, free, sum)
			return
		}
		for _, x := range c[k].Breakpoints() {
			if sum+x <= t {
				xs[k] = x
				rec(k+1, free, sum+x)
			}
		}
	}
	for free := range c {
		rec(0, free, 0)
	}
	return value, left
}

// knots returns every sum of one breakpoint per member, ascending. Between
// consecutive ones the concatenation is the least of the linear functions its
// vertices give, so concave.
func (c splitChain) knots() []float64 {
	sums := []float64{0}
	for _, f := range c {
		var next []float64
		for _, s := range sums {
			for _, x := range f.Breakpoints() {
				next = append(next, s+x)
			}
		}
		sums = next
	}
	sort.Float64s(sums)
	return sums
}

// splitArrival is α′ from the buckets: min(rᵢ·t + bᵢ) + l for t > 0.
type splitArrival struct {
	buckets []Bucket
	l       float64
}

func newSplitArrival(arr Arrival) splitArrival {
	return splitArrival{append([]Bucket{{arr.Rate, arr.Burst}}, arr.Extra...), float64(arr.MaxPacket)}
}

func (a splitArrival) at(t float64) float64 {
	v := math.Inf(1)
	for _, b := range a.buckets {
		v = math.Min(v, float64(b.Rate)*t+float64(b.Burst))
	}
	return v + a.l
}

// inverse is inf { t : α′(t) ≥ y }: the latest of the buckets' own.
func (a splitArrival) inverse(y float64) float64 {
	t := 0.0
	for _, b := range a.buckets {
		t = math.Max(t, (y-a.l-float64(b.Burst))/float64(b.Rate))
	}
	return t
}

// knots returns 0 and every crossing of two buckets: α′ is linear between
// consecutive ones (the crossings off the envelope only add candidates).
func (a splitArrival) knots() []float64 {
	ts := []float64{0}
	for i, p := range a.buckets {
		for _, q := range a.buckets[i+1:] {
			if p.Rate != q.Rate {
				if x := float64(q.Burst-p.Burst) / float64(p.Rate-q.Rate); x > 0 {
					ts = append(ts, x)
				}
			}
		}
	}
	return ts
}

// lead returns sup over t > 0 of α′(t) − β(t + d): α′ − β(· + d) is convex
// between α′'s knots and the knots us of β shifted by d, so the sup sits on
// one of them, with β's left limit at its own knots.
func (a splitArrival) lead(c splitChain, us []float64, d float64) float64 {
	v, _ := c.at(d)
	sup := a.at(0) - v // t → 0+
	for _, t := range a.knots() {
		if t > 0 {
			v, _ := c.at(t + d)
			sup = math.Max(sup, a.at(t)-v)
		}
	}
	for _, u := range us {
		if t := u - d; t > 0 {
			v, l := c.at(u)
			sup = math.Max(sup, math.Max(a.at(t)-v, a.at(t)-l))
		}
	}
	return sup
}

// splitBound returns the exact backlog, sup α′ − β, and delay (seconds), the
// least d with α′(t) ≤ β(t + d) for all t, found by bisection from hi, a
// delay known to suffice (it doubles until it does).
func splitBound(arr Arrival, c splitChain, hi float64) (delay, backlog float64) {
	alpha := newSplitArrival(arr)
	us := c.knots()
	backlog = math.Max(0, alpha.lead(c, us, 0))
	for alpha.lead(c, us, hi) > 0 {
		hi *= 2
	}
	lo := 0.0
	for k := 0; k < 200 && lo < hi; k++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if alpha.lead(c, us, mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, backlog
}
