package core

import (
	"fmt"
	"math"
	"time"

	"streamcalc/internal/curve"
	"streamcalc/internal/units"
)

// NodeAnalysis carries the per-node results of an Analyze run, all in
// input-referred units.
type NodeAnalysis struct {
	Node Node
	// GainBefore is the product of the data-volume gains of all upstream
	// nodes: one input byte corresponds to GainBefore bytes at this node's
	// input.
	GainBefore float64

	// Rate and MaxRate are the node's service rates referred to the
	// pipeline input. MaxRate uses the best-case gain chain (see
	// Node.BestGain).
	Rate    units.Rate
	MaxRate units.Rate

	// JobIn is the aggregation block size referred to the input.
	JobIn units.Bytes
	// Aggregates reports whether this node collects a block larger than the
	// upstream node emits (triggering the aggregation-latency term).
	Aggregates bool
	// AggregationDelay is b_n / R_alpha,n-1 when Aggregates, else 0.
	AggregationDelay time.Duration
	// CumulativeLatency is T_n^tot: the paper's recursion
	// T_n^tot = T_{n-1}^tot + b_n/R_alpha,n-1 + T_n.
	CumulativeLatency time.Duration

	// FIFOTheta is the chosen theta of the FIFO left-over family at this
	// node (meaningful only when the node carries cross traffic and the
	// analysis ran above the blind rung; 0 means the blind residual).
	FIFOTheta float64

	// ArrivalRate is the long-run rate of the flow arriving at this node
	// (input-referred): the arrival rate clipped by upstream bottlenecks.
	ArrivalRate units.Rate
	// AlphaIn is the arrival-curve bound on the flow entering this node,
	// propagated through upstream output bounds.
	AlphaIn curve.Curve
	// Beta and Gamma are the node's packetized service curves
	// (input-referred, time in seconds).
	Beta, Gamma curve.Curve

	// BacklogBound is the vertical deviation between AlphaIn and Beta plus
	// the node's aggregation buffer: the analytic contribution of this node
	// to system data occupancy (used for buffer allocation).
	BacklogBound units.Bytes
	// DelayBound is the horizontal deviation between AlphaIn and Beta: the
	// worst-case queueing+service delay at this node in isolation.
	DelayBound time.Duration
	// Overloaded reports ArrivalRate > Rate for this node (infinite
	// steady-state bounds; see OverloadAnalysis).
	Overloaded bool
}

// Analysis is the result of applying the network-calculus model to a
// pipeline. All curves are input-referred: x-axis seconds, y-axis bytes of
// pipeline input data.
type Analysis struct {
	Pipeline Pipeline
	Nodes    []NodeAnalysis

	// Rung is the resolved analysis rung the bounds were computed at.
	Rung Rung

	// Alpha is the offered arrival curve; AlphaPrime adds the packetizer
	// burst l_max.
	Alpha, AlphaPrime curve.Curve
	// Beta is the concatenated (min-plus convolved) packetized service
	// curve of the whole chain, with the job-aggregation latency folded in.
	Beta curve.Curve
	// Gamma is the concatenated maximum service curve.
	Gamma curve.Curve
	// OutputBound is alpha* = (alpha' ⊗ gamma) ⊘ beta, the bound on the
	// flow leaving the pipeline, normalized to zero at the origin.
	OutputBound curve.Curve

	// TotalLatency is T_N^tot for the full chain.
	TotalLatency time.Duration
	// DelayBound is the end-to-end virtual delay bound d (+Inf if
	// overloaded).
	DelayBound time.Duration
	// DelayBoundInfinite reports an unbounded delay (overload).
	DelayBoundInfinite bool
	// BacklogBound is the end-to-end data-occupancy bound x.
	BacklogBound units.Bytes
	// BacklogBoundInfinite reports an unbounded backlog (overload).
	BacklogBoundInfinite bool

	// DelayEstimate and BacklogEstimate are the closed-form values
	// d = T_tot + b'/R_beta and x = b' + R_alpha*T_tot. In the stable
	// regime they coincide with DelayBound/BacklogBound; in the overloaded
	// regime (R_alpha > R_beta), where the steady-state bounds are
	// infinite, they are the per-job transient estimates the paper's §3
	// hypothesizes remain useful for sizing queues as a job traverses the
	// system — and they are what the paper reports for both case studies.
	DelayEstimate   time.Duration
	BacklogEstimate units.Bytes

	// ThroughputLower is the guaranteed sustained throughput (the ultimate
	// slope of Beta): the network-calculus lower bound of the paper's
	// Tables 1 and 3.
	ThroughputLower units.Rate
	// ThroughputUpper is the best-case throughput: the arrival rate capped
	// by the ultimate slope of Gamma — the paper's upper bound.
	ThroughputUpper units.Rate

	// Overloaded reports that the arrival rate exceeds some node's
	// sustained service rate, making the steady-state bounds infinite.
	Overloaded bool
	// BottleneckIndex is the node with the smallest input-referred
	// sustained rate.
	BottleneckIndex int

	// TightCombos is the number of θ-vectors the tight rung's search scored
	// for this analysis (zero below RungTight). TightPruned is always zero:
	// the search prunes nothing. It stays for the bench module's probes,
	// which read it.
	TightCombos, TightPruned int
}

// secs converts a time.Duration to float64 seconds (curve x-axis unit).
func secs(d time.Duration) float64 { return d.Seconds() }

// dur converts float64 seconds to time.Duration, saturating at the maximum.
func dur(s float64) time.Duration {
	if s >= float64(math.MaxInt64)/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(s * float64(time.Second))
}

// Analyze applies the network-calculus model to the pipeline and returns
// the bounds and curves. It is equivalent to AnalyzeMemo(p, nil).
func Analyze(p Pipeline) (*Analysis, error) { return AnalyzeMemo(p, nil) }

// AnalyzeMemo is Analyze with a result cache: when m is non-nil and holds an
// analysis for a structurally identical pipeline, that result is returned
// directly (analyses are immutable once published — callers must not mutate
// a shared *Analysis). The admission controller threads one Memo through its
// standalone analyses and, through Bound, its candidate and victim checks,
// where the same pipelines recur for every probe.
func AnalyzeMemo(p Pipeline, m *Memo) (*Analysis, error) {
	a, _, err := m.lookup(p, true)
	return a, err
}

// Bounds is what an admission verdict reads of an analysis: the end-to-end
// bounds of the concatenated chain curve (Analysis.ConcatenatedBeta — sound
// for a packetized multi-hop execution, unlike the paper's folded closed
// form), the guaranteed throughput, and the θ the analysis committed to at
// every node. A shared *Bounds is read-only.
type Bounds struct {
	// Rung is the resolved rung the bounds were computed at.
	Rung Rung
	// Delay and Backlog are the horizontal and vertical deviation between
	// AlphaPrime and the concatenated chain curve; the maximum Duration and
	// +Inf when Overloaded.
	Delay   time.Duration
	Backlog units.Bytes
	// Throughput, Overloaded, BottleneckIndex and TightCombos are
	// Analysis.ThroughputLower and the Analysis fields of the same name.
	Throughput      units.Rate
	Overloaded      bool
	BottleneckIndex int
	TightCombos     int
	// FIFOTheta is NodeAnalysis.FIFOTheta, indexed by node.
	FIFOTheta []float64
}

// Bound is the chain-only sibling of AnalyzeMemo (m may be nil): it computes
// what Bounds carries and nothing of the per-node report — no propagated
// arrival beyond what the greedy FIFO rung reads, no per-node deviations, no
// folded closed form, no output bound. The values equal those derived from
// the full Analysis of the same pipeline bit for bit.
func Bound(p Pipeline, m *Memo) (*Bounds, error) {
	_, b, err := m.lookup(p, false)
	return b, err
}

// BoundAt is Bound evaluated at a given θ-vector (indexed by node; entries
// at nodes without cross traffic are ignored): one chain pass with the FIFO
// left-over member at every cross node pinned to theta, no search and no
// memo. Every member of the family is a valid service curve for any θ ≥ 0,
// so the result is sound whatever cross traffic p carries — a vector taken
// from an earlier Bounds.FIFOTheta stays a certificate after the cross
// traffic moves. BoundAt(p, Bound(p).FIFOTheta) equals Bound(p) but for the
// search counter TightCombos, which is zero here.
func BoundAt(p Pipeline, theta []float64) (*Bounds, error) {
	if len(theta) != len(p.Nodes) {
		return nil, fmt.Errorf("core: BoundAt: %d thetas for %d nodes", len(theta), len(p.Nodes))
	}
	_, b, err := run(p, theta, false)
	return b, err
}

// run computes one half of a Memo entry: the Bounds after a chain pass, or
// with report set the full Analysis; a non-nil theta pins the θ-vector
// (BoundAt) instead of following the rung. An attached AnalysisTimer is told
// how long it took; detached, that costs one atomic pointer load.
func run(p Pipeline, theta []float64, report bool) (a *Analysis, b *Bounds, err error) {
	if t := analysisTimer.Load(); t != nil {
		defer func(start time.Time) { (*t)(time.Since(start).Seconds()) }(time.Now())
	}
	if err = p.Validate(); err != nil {
		return nil, nil, err
	}
	if theta == nil && p.Rung.Resolved() == RungTight {
		a, err = analyzeTight(p, report)
	} else {
		a, err = analyzeWith(p, theta, report)
	}
	if err == nil && !report {
		a, b = nil, a.bounds()
	}
	return a, b, err
}

// chainDelay is the one place the promised delay is taken: the horizontal
// deviation, in seconds, between AlphaPrime and the concatenated chain
// curve, which it also returns.
func (a *Analysis) chainDelay() (chain curve.Curve, seconds float64) {
	chain = a.ConcatenatedBeta()
	return chain, curve.HDev(a.AlphaPrime, chain)
}

// bounds derives the Bounds of a completed chain pass.
func (a *Analysis) bounds() *Bounds {
	b := &Bounds{
		Rung: a.Rung, Throughput: a.ThroughputLower,
		Overloaded: a.Overloaded, BottleneckIndex: a.BottleneckIndex,
		TightCombos: a.TightCombos,
		FIFOTheta:   a.thetas(),
	}
	b.Delay, b.Backlog = time.Duration(math.MaxInt64), units.Bytes(math.Inf(1))
	if !a.Overloaded {
		chain, d := a.chainDelay()
		b.Delay, b.Backlog = dur(d), units.Bytes(curve.VDev(a.AlphaPrime, chain))
	}
	return b
}

// thetas is the analysis's θ-vector, indexed by node.
func (a *Analysis) thetas() []float64 {
	out := make([]float64, len(a.Nodes))
	for i := range a.Nodes {
		out[i] = a.Nodes[i].FIFOTheta
	}
	return out
}

// analyzeWith runs one pass of the node loop. A non-nil thetas slice (indexed
// by node) pins the FIFO left-over theta at every cross-traffic node — the
// tight rung's search and BoundAt drive this; entries at nodes without
// cross traffic are ignored. With thetas nil the residual at a cross node
// follows the pipeline's rung: the blind residual, or the per-node greedy
// FIFO member for RungFIFO.
//
// The chain pass — all that runs with report unset — builds what Bounds and
// the tight search read: per node the gain normalisation, Beta, the
// aggregation delay, cumulative latency, overload and θ, and of the chain
// Alpha, AlphaPrime, ThroughputLower, Overloaded and BottleneckIndex; the
// arrival is propagated (and Gamma built) only on the greedy rung, whose θ
// choices read it. The report pass fills in every other field of Analysis and
// NodeAnalysis.
func analyzeWith(p Pipeline, thetas []float64, report bool) (*Analysis, error) {
	rung := p.Rung.Resolved()
	a := &Analysis{Pipeline: p, Rung: rung, Nodes: make([]NodeAnalysis, 0, len(p.Nodes))}

	// Arrival curves (input-referred by definition). Extra buckets tighten
	// the envelope to a concave piecewise-linear minimum.
	alpha := p.Arrival.Envelope()
	alphaPrime := alpha
	if p.Arrival.MaxPacket > 0 {
		alphaPrime = curve.AddBurst(alpha, float64(p.Arrival.MaxPacket))
	}
	a.Alpha, a.AlphaPrime = alpha, alphaPrime
	// The effective long-run arrival rate is the envelope's ultimate slope
	// (the smallest bucket rate).
	arrivalRate := units.Rate(alpha.UltimateSlope())

	// Per-node normalization and curve construction.
	gain := 1.0     // product of gains of upstream nodes (lower-bound curves)
	gainBest := 1.0 // product of best-case gains (maximum service curves)
	arrRate := arrivalRate
	cumLatency := time.Duration(0)
	alphaIn := alphaPrime
	minRate := units.Rate(math.Inf(1))
	minMaxRate := units.Rate(math.Inf(1))
	a.BottleneckIndex = 0

	// grain is the delivery granularity of the upstream element in the local
	// bytes of the current node's input: the source packet size for the first
	// node; for later nodes whatever the upstream stage releases at once —
	// its emitted job, or its output packetizer block when that is larger.
	// A node aggregates whenever its JobIn exceeds this grain. The previous
	// condition compared JobIn against the arrival-envelope burst instead,
	// but the burst is an upper bound on what the flow MAY deliver at once,
	// not a guarantee: a compliant flow trickling packets at its sustained
	// rate fills the job buffer in b_n / R_alpha,n-1, and a bound that
	// skipped the charge was measurably violated by simulation (the
	// experiments/crossval sub-packet slack filed in PR 3 was the backlog
	// shadow of this, with delay overshoots up to 30% on other seeds).
	// An unpacketized arrival (MaxPacket = 0) declares no delivery grain;
	// the model follows the paper and charges no head-node aggregation for
	// it (no simulatable source is grain-free — sim sources require a
	// packet size — so the soundness cross-validation is unaffected).
	grain := math.Inf(1)
	if p.Arrival.MaxPacket > 0 {
		grain = float64(p.Arrival.MaxPacket)
	}

	// Who reads the propagated arrival: the report, and the greedy rung's θ
	// choice at the next cross node.
	propagates := report || (thetas == nil && rung == RungFIFO)

	for i, n := range p.Nodes {
		na := NodeAnalysis{Node: n, GainBefore: gain}
		na.Rate = n.Rate.Mul(1 / gain)
		na.MaxRate = n.maxRateOrRate().Mul(1 / gainBest)
		na.JobIn = n.JobIn.Mul(1 / gain)
		na.ArrivalRate = arrRate
		// Cross traffic under blind multiplexing: the flow of interest only
		// receives the residual service, so the node's effective sustained
		// rate drops by the cross rate (validation guarantees it stays
		// positive).
		crossRate := n.CrossRate.Mul(1 / gain)
		if crossRate > 0 {
			na.Rate -= crossRate
		}

		// Packetized service curves (input-referred). With cross traffic the
		// base curve is the residual [beta_full - alpha_cross]⁺, whose
		// latency (b_c + R·T)/(R - r_c) — not the raw T — is what the node
		// contributes to the end-to-end latency recursion: the folded chain
		// curve must stay below the concatenation of the residual curves.
		lmax := float64(n.MaxPacket.Mul(1 / gain))
		effLatency := n.Latency
		var beta curve.Curve
		if crossRate > 0 {
			var resid curve.Curve
			var ok bool
			switch {
			case thetas != nil:
				// Theta pinned by the tight search or BoundAt.
				na.FIFOTheta = thetas[i]
				resid, beta, ok = pinnedMember(n, gain, thetas[i])
			case rung == RungFIFO:
				// Greedy rung: best member against this node's propagated
				// arrival. Candidates are dominance-safe (theta = 0, the
				// blind residual, included), so the node — and by pointwise
				// dominance the whole chain — never does worse than blind.
				full, crossC := crossService(n, gain)
				resid, na.FIFOTheta, ok = curve.FIFOResidualBest(alphaIn, full, crossC)
			default:
				full, crossC := crossService(n, gain)
				resid, ok = curve.ResidualService(full, crossC)
			}
			if !ok {
				return nil, fmt.Errorf("core: node %d (%s): cross traffic starves the node", i, n.Name)
			}
			if thetas == nil {
				beta = packetized(resid, lmax)
			}
			effLatency = dur(resid.Latency())
		} else {
			beta = packetized(curve.RateLatency(float64(na.Rate), secs(n.Latency)), lmax)
		}

		// Aggregation: the node collects JobIn before dispatching; if that
		// exceeds the grain the upstream element delivers (the paper's
		// b_n > b_{n-1} with b_0 the source packet), collecting a job costs
		// b_n / R_alpha,n-1. The comparison is in this node's local bytes on
		// both sides.
		if float64(n.JobIn) > grain*(1+1e-12) {
			na.Aggregates = true
			na.AggregationDelay = na.JobIn.Time(arrRate)
		}
		na.CumulativeLatency = cumLatency + na.AggregationDelay + effLatency
		cumLatency = na.CumulativeLatency
		na.Beta = beta
		na.Overloaded = float64(arrRate) > float64(na.Rate)*(1+1e-12)

		// Per-node bounds against the propagated arrival bound. The
		// aggregation buffer itself holds up to one job.
		if report {
			na.AlphaIn = alphaIn
			if na.Overloaded {
				na.BacklogBound = units.Bytes(math.Inf(1))
				na.DelayBound = time.Duration(math.MaxInt64)
			} else {
				na.BacklogBound = units.Bytes(curve.VDev(alphaIn, beta))
				if na.Aggregates {
					na.BacklogBound += na.JobIn
				}
				na.DelayBound = dur(curve.HDev(alphaIn, beta))
			}
		}

		// Propagate the flow to the next node: output bound
		// alpha* = (alphaIn ⊗ gamma) ⊘ beta, reinterpreted as an arrival
		// curve. Under overload the output is service-limited instead.
		if propagates {
			na.Gamma = curve.RateLatency(float64(na.MaxRate), 0) // best case: no delay
		}
		if propagates && i+1 < len(p.Nodes) {
			if !na.Overloaded {
				conv := curve.Convolve(alphaIn, na.Gamma)
				if out, ok := curve.Deconvolve(conv, beta); ok {
					alphaIn = out.ZeroAtOrigin()
				}
			} else {
				// The node drains at its own rate; downstream sees at most that.
				alphaIn = curve.Affine(float64(na.Rate), math.Max(float64(na.JobIn), float64(n.MaxPacket.Mul(1/gain))))
			}
		}

		if na.Rate < minRate {
			minRate = na.Rate
			a.BottleneckIndex = i
		}
		if na.MaxRate < minMaxRate {
			minMaxRate = na.MaxRate
		}
		if float64(na.Rate) < float64(arrRate) {
			arrRate = na.Rate
		}
		gain *= n.Gain()
		gainBest *= n.bestGainOrGain()
		// The next node receives blocks of whatever this node releases at
		// once: its emitted job, or its packetizer block when larger
		// (MaxPacket is in local input units; ×Gain converts to the emitted
		// stream's units, matching the next node's JobIn).
		grain = math.Max(float64(n.JobOut), float64(n.MaxPacket)*n.Gain())
		a.Nodes = append(a.Nodes, na)
	}

	a.TotalLatency = cumLatency
	a.Overloaded = float64(arrivalRate) > float64(minRate)*(1+1e-12)
	// Throughput bounds (paper Tables 1 and 3). Both are capped by the
	// offered load: a stable pipeline cannot deliver more than arrives.
	a.ThroughputLower = minRate
	if arrivalRate < a.ThroughputLower {
		a.ThroughputLower = arrivalRate
	}
	if !report {
		return a, nil
	}
	a.ThroughputUpper = arrivalRate
	if minMaxRate < a.ThroughputUpper {
		a.ThroughputUpper = minMaxRate
	}

	// End-to-end service curves: the paper folds the whole chain into a
	// single rate-latency node with the bottleneck rate and the cumulative
	// (aggregation-aware) latency. This equals the min-plus concatenation
	// of the per-node curves with the aggregation delays inserted as pure
	// delay elements.
	a.Beta = curve.RateLatency(float64(minRate), secs(cumLatency))
	a.Gamma = curve.RateLatency(float64(minMaxRate), 0)

	// Closed-form per-job estimates (valid in all three regimes; the
	// paper's §3 hypothesis for the overloaded case).
	a.DelayEstimate = dur(secs(cumLatency) + a.AlphaPrime.Burst()/float64(minRate))
	a.BacklogEstimate = units.Bytes(a.AlphaPrime.Burst() + float64(arrivalRate)*secs(cumLatency))

	// End-to-end bounds.
	if a.Overloaded {
		a.DelayBoundInfinite = true
		a.BacklogBoundInfinite = true
		a.DelayBound = time.Duration(math.MaxInt64)
		a.BacklogBound = units.Bytes(math.Inf(1))
	} else {
		a.DelayBound = dur(curve.HDev(alphaPrime, a.Beta))
		a.BacklogBound = units.Bytes(curve.VDev(alphaPrime, a.Beta))
	}

	// Output flow bound alpha* = (alpha' ⊗ gamma) ⊘ beta.
	convAG := curve.Convolve(alphaPrime, a.Gamma)
	if out, ok := curve.Deconvolve(convAG, a.Beta); ok {
		a.OutputBound = out.ZeroAtOrigin()
	} else {
		a.OutputBound = convAG // overloaded: deconvolution diverges
	}
	return a, nil
}

// crossService returns cross node n's full service curve and its cross
// traffic's envelope, both referred to the pipeline input through the
// upstream gain product.
func crossService(n Node, gain float64) (full, cross curve.Curve) {
	full = curve.RateLatency(float64(n.Rate.Mul(1/gain)), secs(n.Latency))
	cross = curve.Affine(float64(n.CrossRate.Mul(1/gain)), float64(n.CrossBurst.Mul(1/gain)))
	return full, cross
}

// pinnedMember is cross node n's FIFO left-over member at theta, referred to
// the pipeline input through the upstream gain product: resid is β_θ, whose
// latency the latency recursion reads, and beta its packetized [β_θ − l_max]⁺,
// the node's service curve in the chain. ok is false when the cross traffic
// starves the node.
func pinnedMember(n Node, gain, theta float64) (resid, beta curve.Curve, ok bool) {
	full, cross := crossService(n, gain)
	if resid, ok = curve.FIFOResidual(full, cross, theta); !ok {
		return resid, resid, false
	}
	return resid, packetized(resid, float64(n.MaxPacket.Mul(1/gain))), true
}

// packetized is the packetizer's service transform [beta − lmax]⁺.
func packetized(beta curve.Curve, lmax float64) curve.Curve {
	if lmax > 0 {
		return curve.SubConstantPositive(beta, lmax)
	}
	return beta
}

// closedFormMargin is how far, relatively, every hop must sit from saturation
// for ClosedForm to answer: the arrival rate below the hop's residual rate,
// and the residual rate above zero as a share of the node's own. Nearer than
// this the curve engine's tolerances decide on which side of overload a
// pipeline falls.
const closedFormMargin = 1e-6

// ClosedForm is analyzeWith's chain pass in scalars: the paper's closed form
// d = T_tot + b'/R_β, x = b' + R_α·T_tot for a leaky-bucket flow over
// rate-latency hops, with this model's per-hop terms. Hop i, input-referred
// by the upstream gain product g, has the blind residual rate
// Rᵢ = (Rate − CrossRate)/g and the latency
//
//	Tᵢ = (CrossBurst/g + (Rate/g)·Latency)/Rᵢ   (Latency itself without cross traffic)
//	   + (MaxPacket/g)/Rᵢ                        (the packetizer's [β − l_max]⁺)
//	   + (JobIn/g)/r when JobIn exceeds the upstream grain, as in analyzeWith,
//
// and the chain is RateLatency(min Rᵢ, ΣTᵢ) — exactly the blind rung's
// concatenated chain curve, which every fifo and tight chain dominates
// pointwise (the invariant behind curve.FIFOThetaMax). (r, b) is the arrival
// bucket of smallest rate: any bucket majorises the envelope, this one also
// has its ultimate slope; b' = b + MaxPacket. So, in seconds, bytes and
// bytes per second,
//
//	delay = ΣTᵢ + b'/min Rᵢ   backlog = b' + r·ΣTᵢ   throughput = min(r, min Rᵢ)
//
// are no better than what Bound returns for the same pipeline at any rung.
// ok is false — and the other results meaningless — unless at every hop
// r < Rᵢ(1 − ε) and Rᵢ > ε·Rate/g: overload, starvation and near-saturation
// are the analysis's to judge. (Where it answers, analyzeWith's clipped
// arrival rate min(r, R₁…Rᵢ₋₁) is r itself.) arr and nodes must be valid but
// for that. It allocates nothing: the admission controller clears with it
// every victim that is nowhere near its SLO.
func ClosedForm(arr Arrival, nodes []Node) (delay float64, backlog units.Bytes, throughput units.Rate, ok bool) {
	if len(nodes) == 0 {
		return 0, 0, 0, false
	}
	r, b := float64(arr.Rate), float64(arr.Burst)
	for _, e := range arr.Extra {
		if er, eb := float64(e.Rate), float64(e.Burst); er < r || (er == r && eb < b) {
			r, b = er, eb
		}
	}
	b += float64(arr.MaxPacket)
	grain := math.Inf(1)
	if arr.MaxPacket > 0 {
		grain = float64(arr.MaxPacket)
	}
	gain, minR, sumT := 1.0, math.Inf(1), 0.0
	for _, n := range nodes {
		full := float64(n.Rate) / gain
		R := full - float64(n.CrossRate)/gain
		if R <= closedFormMargin*full || r >= R*(1-closedFormMargin) {
			return 0, 0, 0, false
		}
		T := secs(n.Latency)
		if T > 0 {
			T = math.Max(T, curve.MinLatency) // as curve.RateLatency builds it
		}
		if n.CrossRate > 0 {
			T = (float64(n.CrossBurst)/gain + full*T) / R
		}
		T += float64(n.MaxPacket) / gain / R
		if float64(n.JobIn) > grain*(1+1e-12) {
			T += float64(n.JobIn) / gain / r
		}
		sumT += T
		minR = math.Min(minR, R)
		gain *= n.Gain()
		grain = math.Max(float64(n.JobOut), float64(n.MaxPacket)*n.Gain())
	}
	return sumT + b/minR, units.Bytes(b + r*sumT), units.Rate(math.Min(r, minR)), true
}

// ConcatenatedBeta returns the min-plus concatenation of the per-node
// packetized service curves, with each node's aggregation delay inserted as
// a pure-delay element. Unlike the folded rate-latency Beta (the paper's
// closed form, which carries the packetizer adjustment on the arrival side
// only), this curve subtracts l_max at every hop, so delay and backlog
// bounds derived from it remain valid for multi-hop store-and-forward
// chains — the sound choice when the bounds back admission promises.
func (a *Analysis) ConcatenatedBeta() curve.Curve {
	var out curve.Curve
	for i, na := range a.Nodes {
		b := curve.ShiftRight(na.Beta, secs(na.AggregationDelay))
		if i == 0 {
			out = b
		} else {
			out = curve.Convolve(out, b)
		}
	}
	return out
}

// InputAt returns the arrival-curve bound on the flow entering node i (the
// propagated output bound of the upstream subchain), for use with Subrange.
func (a *Analysis) InputAt(i int) curve.Curve {
	return a.Nodes[i].AlphaIn
}

// Bottleneck returns the analysis entry of the bottleneck node.
func (a *Analysis) Bottleneck() NodeAnalysis { return a.Nodes[a.BottleneckIndex] }

// BufferPlan returns the recommended per-node buffer capacities: each
// node's analytic backlog contribution, rounded up to whole bytes. Nodes
// with infinite bounds (overload) report Capacity < 0 with Infinite set.
type BufferRecommendation struct {
	Name     string
	Capacity units.Bytes
	Infinite bool
}

// BufferPlan derives a per-node buffer allocation from the analysis — the
// paper's §4.2 use case ("assist a developer in allocating buffers").
func (a *Analysis) BufferPlan() []BufferRecommendation {
	out := make([]BufferRecommendation, len(a.Nodes))
	for i, na := range a.Nodes {
		rec := BufferRecommendation{Name: na.Node.Name}
		if math.IsInf(float64(na.BacklogBound), 1) {
			rec.Infinite = true
			rec.Capacity = -1
		} else {
			rec.Capacity = units.Bytes(math.Ceil(float64(na.BacklogBound)))
		}
		out[i] = rec
	}
	return out
}
