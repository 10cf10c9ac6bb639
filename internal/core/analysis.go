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

	// TightCombos and TightPruned are always zero: no rung searches a θ
	// grid. They stay for the bench module's probes, which read them.
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
// a shared *Analysis).
func AnalyzeMemo(p Pipeline, m *Memo) (*Analysis, error) { return m.lookup(p) }

// Bounds is what an admission verdict reads of an analysis: the end-to-end
// bounds of the concatenated chain curve (Analysis.ConcatenatedBeta — sound
// for a packetized multi-hop execution, unlike the paper's folded closed
// form), the guaranteed throughput, and the θ the analysis committed to at
// every node. A shared *Bounds is read-only.
type Bounds struct {
	// Rung is the resolved rung the bounds were computed at.
	Rung Rung
	// Delay and Backlog are the horizontal and vertical deviation between
	// AlphaPrime and the concatenated chain curve, as ChainBound computes
	// them; the maximum Duration and +Inf when Overloaded.
	Delay   time.Duration
	Backlog units.Bytes
	// Throughput, Overloaded and BottleneckIndex are
	// Analysis.ThroughputLower and the Analysis fields of the same name.
	Throughput      units.Rate
	Overloaded      bool
	BottleneckIndex int
	// FIFOTheta is NodeAnalysis.FIFOTheta, indexed by node.
	FIFOTheta []float64
}

// Bound is the chain-only sibling of Analyze: it computes what Bounds
// carries and nothing of the per-node report, taking the delay and backlog
// from ChainBound at the rung's θ-vector (none at blind, the capped optimum at
// fifo and tight; see Rung), so Bound and BoundAt agree bit for bit at one
// vector, and Analyze reports the same vector, throughput, overload and
// bottleneck.
func Bound(p Pipeline) (*Bounds, error) {
	_, b, err := run(p, nil, false)
	return b, err
}

// BoundAt is Bound evaluated at a given θ-vector (indexed by node; entries
// at nodes without cross traffic are ignored): ChainBound with the FIFO
// left-over member at every cross node pinned to theta, no search and no
// curve. Every member of the family is a valid service curve for any
// θ ≥ 0, so the result is sound whatever cross traffic p carries — a vector
// taken from an earlier Bounds.FIFOTheta stays a certificate after the cross
// traffic moves. BoundAt(p, Bound(p).FIFOTheta) equals Bound(p).
func BoundAt(p Pipeline, theta []float64) (*Bounds, error) {
	if len(theta) != len(p.Nodes) {
		return nil, fmt.Errorf("core: BoundAt: %d thetas for %d nodes", len(theta), len(p.Nodes))
	}
	_, b, err := run(p, theta, false)
	return b, err
}

// run computes the Bounds, or with report set the full Analysis; a non-nil
// theta pins the θ-vector (BoundAt) instead of following the rung.
func run(p Pipeline, theta []float64, report bool) (a *Analysis, b *Bounds, err error) {
	if err = p.Validate(); err != nil {
		return nil, nil, err
	}
	search := theta == nil && p.Rung.Resolved() != RungBlind
	if !report {
		b, err = chainBounds(p, theta, search)
		return nil, b, err
	}
	if search {
		theta = optimum(p)
	}
	a, err = analyzeWith(p, theta, true)
	return a, nil, err
}

// analyzeWith runs the node loop over curves. A non-nil thetas slice (indexed
// by node) pins the FIFO left-over θ at every cross node (entries elsewhere
// are ignored); with thetas nil a cross node takes the blind residual. The
// chain pass, report unset, builds per node the normalisation, Beta and θ,
// and of the chain Alpha, AlphaPrime, ThroughputLower, Overloaded and
// BottleneckIndex: the curve-engine oracle ChainBound is tested against. The
// report pass fills in every other field of Analysis and NodeAnalysis.
func analyzeWith(p Pipeline, thetas []float64, report bool) (*Analysis, error) {
	rung := p.Rung.Resolved()
	a := &Analysis{Pipeline: p, Rung: rung, Nodes: make([]NodeAnalysis, 0, len(p.Nodes))}

	// Arrival curves (input-referred by definition). Extra buckets tighten
	// the envelope to a concave piecewise-linear minimum.
	a.Alpha = p.Arrival.Envelope()
	alphaPrime := a.Alpha
	if p.Arrival.MaxPacket > 0 {
		alphaPrime = curve.AddBurst(a.Alpha, float64(p.Arrival.MaxPacket))
	}
	a.AlphaPrime = alphaPrime

	w := newWalk(p.Arrival)
	cumLatency := time.Duration(0)
	alphaIn := alphaPrime

	for i, n := range p.Nodes {
		var h hop
		w.next(&p.Nodes[i], &h)
		na := NodeAnalysis{
			Node: n, GainBefore: h.gain, Rate: h.rate, MaxRate: h.maxRate, JobIn: h.jobIn,
			ArrivalRate: h.arrRate, Aggregates: h.aggregates, AggregationDelay: h.agg,
			Overloaded: h.overloaded,
		}

		// Packetized service curves (input-referred). With cross traffic the
		// base curve is the residual [beta_full - alpha_cross]⁺, whose
		// latency (b_c + R·T)/(R - r_c) — not the raw T — is what the node
		// contributes to the end-to-end latency recursion: the folded chain
		// curve must stay below the concatenation of the residual curves.
		effLatency := n.Latency
		var resid curve.Curve
		if h.cross > 0 {
			full, crossC := h.service()
			var ok bool
			if thetas != nil {
				na.FIFOTheta = thetas[i]
				resid, ok = curve.FIFOResidual(full, crossC, thetas[i])
			} else {
				resid, ok = curve.ResidualService(full, crossC)
			}
			if !ok {
				return nil, starvation(p, i)
			}
			effLatency = dur(resid.Latency())
		} else {
			resid = curve.RateLatency(h.full, secs(n.Latency))
		}
		beta := resid
		if h.lmax > 0 {
			beta = curve.SubConstantPositive(resid, h.lmax) // the packetizer's [β − l_max]⁺
		}
		na.CumulativeLatency = cumLatency + na.AggregationDelay + effLatency
		cumLatency = na.CumulativeLatency
		na.Beta = beta

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
		if report {
			na.Gamma = curve.RateLatency(float64(na.MaxRate), 0) // best case: no delay
		}
		if report && i+1 < len(p.Nodes) {
			if !na.Overloaded {
				conv := curve.Convolve(alphaIn, na.Gamma)
				if out, ok := curve.Deconvolve(conv, beta); ok {
					alphaIn = out.ZeroAtOrigin()
				}
			} else {
				// The node drains at its own rate; downstream sees at most that.
				alphaIn = curve.Affine(float64(na.Rate), math.Max(float64(na.JobIn), h.lmax))
			}
		}
		a.Nodes = append(a.Nodes, na)
	}
	a.BottleneckIndex = w.bottleneck
	a.TotalLatency = cumLatency
	a.Overloaded = w.overloaded()
	// Throughput bounds (paper Tables 1 and 3). Both are capped by the
	// offered load: a stable pipeline cannot deliver more than arrives.
	a.ThroughputLower = w.throughput()
	if !report {
		return a, nil
	}
	a.ThroughputUpper = min(w.arrival, w.minMaxRate)

	// End-to-end service curves: the paper folds the whole chain into a
	// single rate-latency node with the bottleneck rate and the cumulative
	// (aggregation-aware) latency. This equals the min-plus concatenation
	// of the per-node curves with the aggregation delays inserted as pure
	// delay elements.
	a.Beta = curve.RateLatency(float64(w.minRate), secs(cumLatency))
	a.Gamma = curve.RateLatency(float64(w.minMaxRate), 0)

	// Closed-form per-job estimates (valid in all three regimes; the
	// paper's §3 hypothesis for the overloaded case).
	a.DelayEstimate = dur(secs(cumLatency) + a.AlphaPrime.Burst()/float64(w.minRate))
	a.BacklogEstimate = units.Bytes(a.AlphaPrime.Burst() + float64(w.arrival)*secs(cumLatency))

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

// service returns cross hop h's full service curve and its cross traffic's
// envelope, both input-referred.
func (h *hop) service() (full, cross curve.Curve) {
	return curve.RateLatency(h.full, h.latency), curve.Affine(h.cross, h.burst)
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
