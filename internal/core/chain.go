package core

import (
	"fmt"
	"math"
	"time"

	"streamcalc/internal/curve"
	"streamcalc/internal/units"
)

// hop is one node of a chain referred to the pipeline input through the
// upstream gain product: what analyzeWith and the chain evaluator both read
// of it. Its service curve in the chain of ConcatenatedBeta is δ_D ⊗ (J + S·t),
// a delay D, then a jump J and one slope S = rate.
type hop struct {
	gain    float64    // GainBefore
	full    float64    // the node's rate, Rf
	rate    units.Rate // the sustained rate left to the flow: Rf, less the cross rate
	maxRate units.Rate
	jobIn   units.Bytes
	// The cross traffic's rate r and burst b, the packet, and the latency T in
	// seconds, raised to curve.MinLatency as curve.RateLatency raises it.
	cross, burst, lmax, latency float64
	arrRate                     units.Rate    // the flow's long-run rate arriving here
	agg                         time.Duration // the aggregation delay
	// d is D without cross traffic and the aggregation delay with it; theta0
	// is θ₀, past which the FIFO member jumps instead of delaying further.
	d, theta0                       float64
	aggregates, overloaded, starved bool
}

// walk is the one normalisation loop over a chain: next refers node after
// node to the pipeline input and folds it into the chain's running minima.
type walk struct {
	gain, gainBest float64 // products of the upstream gains (lower bound, best case)
	// grain is the delivery granularity of the upstream element in the local
	// bytes of the current node's input: the source packet for the first node
	// (none for a fluid arrival, which the paper charges no head-node
	// aggregation), then whatever the upstream stage releases at once — its
	// emitted job, or its packetizer block when larger. A node aggregates when
	// its JobIn exceeds it. Not the arrival burst: that bounds what the flow
	// may deliver at once, and a flow trickling packets at its sustained rate
	// fills the job buffer in b_n / R_alpha,n-1, which simulation confirms.
	grain float64
	// arrival is the envelope's ultimate slope, the smallest bucket rate;
	// arrRate the same clipped by the upstream bottlenecks.
	arrival, arrRate    units.Rate
	minRate, minMaxRate units.Rate
	bottleneck, i       int
}

func newWalk(arr Arrival) walk {
	w := walk{gain: 1, gainBest: 1, grain: math.Inf(1), arrival: arr.Rate,
		minRate: units.Rate(math.Inf(1)), minMaxRate: units.Rate(math.Inf(1))}
	for _, b := range arr.Extra {
		w.arrival = min(w.arrival, b.Rate)
	}
	w.arrRate = w.arrival
	if arr.MaxPacket > 0 {
		w.grain = float64(arr.MaxPacket)
	}
	return w
}

// next normalises node n, the next one down the chain, into h, a zero hop.
func (w *walk) next(n *Node, h *hop) {
	g := w.gain
	h.gain, h.rate, h.maxRate = g, n.Rate.Mul(1/g), n.maxRateOrRate().Mul(1/w.gainBest)
	h.jobIn, h.arrRate, h.latency = n.JobIn.Mul(1/g), w.arrRate, secs(n.Latency)
	h.lmax = float64(n.MaxPacket.Mul(1 / g))
	h.full = float64(h.rate)
	if h.latency > 0 {
		h.latency = max(h.latency, curve.MinLatency)
	}
	// Cross traffic under blind multiplexing: the flow of interest only
	// receives the residual service, so the node's effective sustained rate
	// drops by the cross rate.
	if cr := n.CrossRate.Mul(1 / g); cr > 0 {
		h.rate -= cr
		h.cross, h.burst = float64(cr), float64(n.CrossBurst.Mul(1/g))
		h.starved = h.full <= h.cross+1e-9*(1+h.cross)
	}
	// Aggregation: the node collects JobIn before dispatching; if that
	// exceeds the grain the upstream element delivers (the paper's
	// b_n > b_{n-1} with b_0 the source packet), collecting a job costs
	// b_n / R_alpha,n-1. The comparison is in this node's local bytes on
	// both sides.
	if h.aggregates = float64(n.JobIn) > w.grain*(1+1e-12); h.aggregates {
		h.agg = h.jobIn.Time(w.arrRate)
	}
	h.overloaded = float64(w.arrRate) > float64(h.rate)*(1+1e-12)
	h.d = secs(h.agg)
	if h.cross > 0 {
		h.theta0 = h.latency + (h.burst+h.lmax)/h.full
	} else {
		h.d += h.latency + h.lmax/h.full
	}

	if h.rate < w.minRate {
		w.minRate, w.bottleneck = h.rate, w.i
	}
	w.minMaxRate = min(w.minMaxRate, h.maxRate)
	if float64(h.rate) < float64(w.arrRate) {
		w.arrRate = h.rate
	}
	w.gain *= n.Gain()
	w.gainBest *= n.bestGainOrGain()
	// The next node receives blocks of whatever this node releases at once:
	// its emitted job, or its packetizer block when larger (MaxPacket is in
	// local input units; ×Gain converts to the emitted stream's units,
	// matching the next node's JobIn).
	w.grain = max(float64(n.JobOut), float64(n.MaxPacket)*n.Gain())
	w.i++
}

// overloaded reports that the arrival exceeds the chain's sustained rate.
func (w *walk) overloaded() bool { return float64(w.arrival) > float64(w.minRate)*(1+1e-12) }

// throughput is the guaranteed sustained throughput: the bottleneck rate,
// capped by the offered load.
func (w *walk) throughput() units.Rate { return min(w.minRate, w.arrival) }

// knot is a breakpoint of the packetized arrival α′: a = α′(t), the right
// limit at t = 0.
type knot struct{ t, a float64 }

// envelopeAt is minᵢ(rᵢ·t + bᵢ) over the arrival's buckets: α′(t) less the
// packet, for t > 0.
func (arr *Arrival) envelopeAt(t float64) float64 {
	v := float64(arr.Rate)*t + float64(arr.Burst)
	for _, b := range arr.Extra {
		v = min(v, float64(b.Rate)*t+float64(b.Burst))
	}
	return v
}

// appendKnots appends α′'s knots to dst, in no order: 0, and every crossing
// of two buckets where one of them attains the envelope.
func appendKnots(dst []knot, arr Arrival) []knot {
	l := float64(arr.MaxPacket)
	dst = append(dst, knot{0, arr.envelopeAt(0) + l})
	line := func(i int) (r, b float64) {
		if i == 0 {
			return float64(arr.Rate), float64(arr.Burst)
		}
		return float64(arr.Extra[i-1].Rate), float64(arr.Extra[i-1].Burst)
	}
	for i := 0; i <= len(arr.Extra); i++ {
		for j := i + 1; j <= len(arr.Extra); j++ {
			ri, bi := line(i)
			rj, bj := line(j)
			if t := (bj - bi) / (ri - rj); ri != rj && t > 0 {
				if v := arr.envelopeAt(t); v == ri*t+bi || v == rj*t+bj {
					dst = append(dst, knot{t, v + l})
				}
			}
		}
	}
	return dst
}

// appendHops appends the chain's hops to dst, walking it with w.
func appendHops(dst []hop, w *walk, nodes []Node) []hop {
	for i := range nodes {
		dst = append(dst, hop{})
		w.next(&nodes[i], &dst[len(dst)-1])
	}
	return dst
}

// member is node h's service curve at theta: δ_d ⊗ (j + s·t), the packetized
// FIFO left-over member [β_θ − l]⁺ (the blind residual at θ = 0) delayed by
// the aggregation delay, or the packetized full service without cross
// traffic. ok is false when the cross traffic starves the node.
func (h *hop) member(theta float64) (d, j, s float64, ok bool) {
	if h.cross == 0 {
		return h.d, 0, h.full, true
	}
	if h.starved {
		return 0, 0, 0, false
	}
	s = float64(h.rate)
	if theta <= h.theta0 {
		return (h.burst+h.lmax+h.full*h.latency-h.cross*theta)/s + h.d, 0, s, true
	}
	return theta + h.d, h.full*(theta-h.latency) - h.burst - h.lmax, s, true
}

// chainAt evaluates the chain of hops against arr, whose knots are given, at
// theta (nil: the blind residual at every cross node), in seconds and bytes;
// overloaded is the walk's verdict, and starved the first node the cross
// traffic starves, or -1. With backlog unset only the delay is computed.
func chainAt(hops []hop, arr *Arrival, knots []knot, overloaded bool, theta []float64, backlog bool) (delay, bl float64, starved int) {
	var onStack [8][2]float64 // (J, S) per node; longer chains spill to the heap
	js := onStack[:0]
	sumD := 0.0
	for i := range hops {
		th := 0.0
		if theta != nil {
			th = theta[i]
		}
		d, j, s, ok := hops[i].member(th)
		if !ok {
			return 0, 0, i
		}
		sumD += d
		js = append(js, [2]float64{j, s})
	}
	if overloaded {
		return math.Inf(1), math.Inf(1), -1
	}
	// The chain is δ_ΣD ⊗ minₖ(Jₖ + Sₖ·t). Against the concave α′ each
	// (α′(t) − Jₖ)/Sₖ − t is concave, so the delay's sup sits on a knot.
	worst := 0.0
	for _, k := range knots {
		for _, m := range js {
			worst = max(worst, (k.a-m[0])/m[1]-k.t)
		}
	}
	if !backlog {
		return sumD + worst, 0, -1
	}
	// α′ − β is α′ up to ΣD and convex between α′'s knots from it on, so its
	// sup sits at ΣD (either side) or on a knot from it on.
	if sumD > 0 {
		bl = arr.envelopeAt(sumD) + float64(arr.MaxPacket)
	}
	for _, k := range knots {
		if k.t >= sumD {
			beta := math.Inf(1)
			for _, m := range js {
				beta = min(beta, m[0]+m[1]*(k.t-sumD))
			}
			bl = max(bl, k.a-beta)
		}
	}
	return sumD + worst, bl, -1
}

// ChainBound is the chain bound of Bound in scalars: the delay (seconds) and
// backlog between the packetized arrival α′ and the concatenation of the
// nodes' packetized service curves, each delayed by its aggregation delay, at
// the FIFO left-over member θ[i] at every cross node i (nil theta: the blind
// residual; entries at nodes without cross traffic are ignored), and the
// guaranteed throughput. Every node's curve there is δ_D ⊗ (J + S·t), input-
// referred through the upstream gain product g, with Rf = Rate/g, the latency
// T raised to curve.MinLatency, l = MaxPacket/g and agg the aggregation delay:
//
//	no cross traffic:        D = T + l/Rf + agg, J = 0, S = Rf
//	cross (r, b) at θ ≤ θ₀:  D = (b + l + Rf·T − r·θ)/S + agg, J = 0, S = Rf − r
//	cross (r, b) at θ > θ₀:  D = θ + agg, J = Rf(θ − T) − b − l, S = Rf − r
//
// with θ₀ = T + (b + l)/Rf. The chain is δ_ΣD ⊗ minₖ(Jₖ + Sₖ·t), so over the
// knots tⱼ of α′ (right limits)
//
//	delay = ΣD + max(0, maxₖ maxⱼ ((α′(tⱼ) − Jₖ)/Sₖ − tⱼ))
//
// and the backlog is the largest α′ − β at ΣD and at the knots past it. It
// costs O(N·J) scalars for N nodes and J buckets, builds no curve, and
// allocates nothing for up to 8 of each. Overload, starvation and the
// throughput are judged as Bound judges them; ok is false when the arrival
// overloads the chain or cross traffic starves a node. arr and nodes must be
// valid but for that, and theta, when given, as long as nodes.
func ChainBound(arr Arrival, nodes []Node, theta []float64) (delay float64, backlog units.Bytes, throughput units.Rate, ok bool) {
	delay, bl, starved, w := chain(arr, nodes, theta)
	if starved >= 0 || w.overloaded() {
		return 0, 0, 0, false
	}
	return delay, units.Bytes(bl), w.throughput(), true
}

// chain is chainAt on a chain built from scratch, and the walk that built it.
func chain(arr Arrival, nodes []Node, theta []float64) (delay, backlog float64, starved int, w walk) {
	var hops [8]hop
	var knots [8]knot
	w = newWalk(arr)
	delay, backlog, starved = chainAt(appendHops(hops[:0], &w, nodes), &arr, appendKnots(knots[:0], arr), w.overloaded(), theta, true)
	return delay, backlog, starved, w
}

// free is a cross hop whose θ the optimum chooses on [lo, hi] = [θ₀, θmax]:
// there its member adds θ to ΣD and contributes A − a·θ to the max-term.
type free struct {
	i            int
	A, a, lo, hi float64
}

// at is the free hop's θ at level z: the smallest θ in [lo, hi] whose term
// A − a·θ is at most z, or hi when none is.
func (f *free) at(z float64) float64 { return min(max((f.A-z)/f.a, f.lo), f.hi) }

// thetaOptimum writes into dst (as long as hops, zero at hops without cross
// traffic) and returns the θ-vector that minimises chainAt's delay over the
// capped box: θₖ in [0, θmaxₖ] at every cross hop k, where
//
//	θmaxₖ = (bₖ + Rfₖ·Tₖ)/(Rfₖ − rₖ)
//
// is the blind residual's latency (curve.FIFOThetaMax in scalars, with T and
// a zero latency as hop takes them), the largest θ whose member dominates
// the blind residual pointwise. So the bound is never above the blind one nor
// above any vector in the box. It returns nil when no hop carries cross
// traffic or one is starved (chainAt reports the starvation).
//
// Below θ₀ₖ the member's D falls as θ rises and J stays 0, so a hop with
// θmaxₖ ≤ θ₀ₖ is pinned at θmaxₖ, and every other hop k is free on
// [θ₀ₖ, θmaxₖ], where it adds θₖ to ΣD and Aₖ − aₖθₖ to the max-term, with
// aₖ = Rfₖ/Sₖ and Aₖ = maxⱼ((α′ⱼ + Rfₖ·Tₖ + bₖ + lₖ)/Sₖ − tⱼ). With z₀ the
// largest term of the other hops (at least 0), the delay less a constant is
//
//	G(θ) = Σθₖ + max(z₀, maxₖ(Aₖ − aₖθₖ))
//
// over the free hops. At a level z the cheapest θₖ keeping hop k's term at
// most z is θₖ(z) = clamp((Aₖ − z)/aₖ, θ₀ₖ, θmaxₖ), and G(θ(z)) is convex and
// piecewise linear in z from z_lo = max(z₀, maxₖ(Aₖ − aₖθmaxₖ)) on, with
// breakpoints where a hop reaches θ₀ₖ. Any θ in the box is matched or beaten
// by θ(z) at its own level, so the scan of G(θ(z)) at z₀ and at the 2N levels
// Aₖ − aₖθ₀ₖ and Aₖ − aₖθmaxₖ finds the minimum. Ties keep the higher level,
// whose θ is no larger at any hop. It costs O(N·J + N²) scalars for N hops
// and J knots, and allocates nothing for up to 8 free hops.
func thetaOptimum(hops []hop, knots []knot, dst []float64) []float64 {
	var onStack [8]free
	fs := onStack[:0]
	z0, crossed := 0.0, false
	// term is the max-term of a member without a jump and with slope s.
	term := func(s float64) float64 {
		worst := math.Inf(-1)
		for _, k := range knots {
			worst = max(worst, k.a/s-k.t)
		}
		return worst
	}
	for i := range hops {
		h := &hops[i]
		if h.starved {
			return nil
		}
		dst[i] = 0
		if h.cross == 0 {
			z0 = max(z0, term(h.full))
			continue
		}
		crossed = true
		s := float64(h.rate)
		tmax := (h.burst + h.full*h.latency) / s
		if tmax <= h.theta0 {
			dst[i] = tmax
			z0 = max(z0, term(s))
			continue
		}
		f := free{i: i, A: math.Inf(-1), a: h.full / s, lo: h.theta0, hi: tmax}
		for _, k := range knots {
			f.A = max(f.A, (k.a+h.full*h.latency+h.burst+h.lmax)/s-k.t)
		}
		fs = append(fs, f)
	}
	if !crossed {
		return nil
	}
	// g is G(θ(z)).
	g := func(z float64) float64 {
		sum, worst := 0.0, z0
		for k := range fs {
			th := fs[k].at(z)
			sum += th
			worst = max(worst, fs[k].A-fs[k].a*th)
		}
		return sum + worst
	}
	bestZ, best := z0, g(z0)
	for k := range fs {
		for _, th := range [2]float64{fs[k].lo, fs[k].hi} {
			z := fs[k].A - fs[k].a*th
			if v := g(z); v < best || (v == best && z > bestZ) {
				bestZ, best = z, v
			}
		}
	}
	for k := range fs {
		dst[fs[k].i] = fs[k].at(bestZ)
	}
	return dst
}

// chainBounds is Bound's answer from the chain evaluator at theta (nil: the
// blind residual), or with search set at thetaOptimum's vector, the vector
// Bounds.FIFOTheta reports.
func chainBounds(p Pipeline, theta []float64, search bool) (*Bounds, error) {
	var hb [8]hop
	var kb [8]knot
	w := newWalk(p.Arrival)
	hops, knots := appendHops(hb[:0], &w, p.Nodes), appendKnots(kb[:0], p.Arrival)
	b := &Bounds{
		Rung: p.Rung.Resolved(), Throughput: w.throughput(),
		Overloaded: w.overloaded(), BottleneckIndex: w.bottleneck,
		FIFOTheta: make([]float64, len(p.Nodes)),
	}
	if search {
		theta = thetaOptimum(hops, knots, b.FIFOTheta)
	}
	delay, backlog, starved := chainAt(hops, &p.Arrival, knots, b.Overloaded, theta, true)
	if starved >= 0 {
		return nil, starvation(p, starved)
	}
	if theta != nil {
		for i, n := range p.Nodes {
			if n.CrossRate > 0 {
				b.FIFOTheta[i] = theta[i]
			}
		}
	}
	b.Delay, b.Backlog = time.Duration(math.MaxInt64), units.Bytes(math.Inf(1))
	if !b.Overloaded {
		b.Delay, b.Backlog = dur(delay), units.Bytes(backlog)
	}
	return b, nil
}

// Reservations is, per node of p and in node-local units, the ultimate affine
// bound (rate, burst) of the flow's propagated output bound α* = (α ⊗ γ) ⊘ β
// at that node's input: NodeAnalysis.AlphaIn.UltimateAffine() times
// GainBefore, from the same chain at the rung's θ-vector (none at blind,
// thetaOptimum's at fifo and tight), in scalars and without a curve. Every
// member is δ_D ⊗ (J + S·t), so with r·t + B the ultimate part of the
// arrival at node k (from the least-rate bucket, least burst on ties, plus
// the packet) the ultimate part at node k+1 is
//
//	overloaded:     hₖ.rate·t + max(JobInₖ, lₖ)
//	r < MaxRateₖ:   r·t + B + r·D′ₖ
//	otherwise:      MaxRateₖ·t + MaxRateₖ·D′ₖ
//
// with D′ₖ the member's D less the aggregation delay. The errors are Bound's:
// an invalid pipeline or a node the cross traffic starves.
func Reservations(p Pipeline) ([]Bucket, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var hb [8]hop
	var kb [8]knot
	w := newWalk(p.Arrival)
	hops := appendHops(hb[:0], &w, p.Nodes)
	for i := range hops {
		if hops[i].starved {
			return nil, starvation(p, i)
		}
	}
	var theta []float64
	if p.Rung.Resolved() != RungBlind {
		theta = thetaOptimum(hops, appendKnots(kb[:0], p.Arrival), make([]float64, len(hops)))
	}
	r, b := float64(p.Arrival.Rate), float64(p.Arrival.Burst)
	for _, x := range p.Arrival.Extra {
		if xr, xb := float64(x.Rate), float64(x.Burst); xr < r || (xr == r && xb < b) {
			r, b = xr, xb
		}
	}
	b += float64(p.Arrival.MaxPacket)
	out := make([]Bucket, len(hops))
	for i := range hops {
		h := &hops[i]
		out[i] = Bucket{Rate: units.Rate(r * h.gain), Burst: units.Bytes(max(0, b) * h.gain)}
		if h.overloaded {
			r, b = float64(h.rate), max(float64(h.jobIn), h.lmax)
			continue
		}
		if maxRate := float64(h.maxRate); r >= maxRate {
			r, b = maxRate, 0
		}
		th := 0.0
		if theta != nil {
			th = theta[i]
		}
		d, _, _, _ := h.member(th)
		b += r * (d - secs(h.agg))
	}
	return out, nil
}

// optimum is thetaOptimum on p's chain, for the report pass.
func optimum(p Pipeline) []float64 {
	var hb [8]hop
	var kb [8]knot
	w := newWalk(p.Arrival)
	return thetaOptimum(appendHops(hb[:0], &w, p.Nodes), appendKnots(kb[:0], p.Arrival), make([]float64, len(p.Nodes)))
}

// starvation is the error of a pipeline whose cross traffic starves node i.
func starvation(p Pipeline, i int) error {
	return fmt.Errorf("core: node %d (%s): cross traffic starves the node", i, p.Nodes[i].Name)
}
