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
	// propagated through upstream output bounds (past a FIFO member with a
	// jump, through the least concave majorant of its output bound).
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

// dur converts float64 seconds to time.Duration, rounding up to the next
// nanosecond, so that a bound is never reported below its value, and
// saturating at the maximum.
func dur(s float64) time.Duration {
	if s >= float64(math.MaxInt64)/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(math.Ceil(s * float64(time.Second)))
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
// bounds of the concatenated per-node chain (ChainBound — sound for a
// packetized multi-hop execution, unlike the paper's folded closed form),
// the guaranteed throughput, and the θ the analysis committed to at every
// node. A shared *Bounds is read-only.
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
	a, err = analyze(p, theta)
	return a, nil, err
}

// analyze is the report pass: every number of the Analysis from the walk's
// hops in scalars, at theta (nil: the blind residual at every cross node;
// entries at nodes without cross traffic are ignored), and the curve-typed
// fields built from those numbers by constructors. The flow entering each
// node is a bucket list, α′ at the first node; propagate carries it through
// the node's member δ_D′ ⊗ (J + S·t), D′ the member's D less the aggregation
// delay, and the node's delay and backlog are deviations against that one
// member, as ChainBound reads a chain. The folded chain is the member
// (TotalLatency, 0, the bottleneck rate) behind the maximum service at the
// least maximum rate.
func analyze(p Pipeline, theta []float64) (*Analysis, error) {
	a := &Analysis{Pipeline: p, Rung: p.Rung.Resolved(), Nodes: make([]NodeAnalysis, len(p.Nodes))}
	a.Alpha = p.Arrival.Envelope()
	a.AlphaPrime = a.Alpha
	if p.Arrival.MaxPacket > 0 {
		a.AlphaPrime = curve.AddBurst(a.Alpha, float64(p.Arrival.MaxPacket))
	}

	w := newWalk(p.Arrival)
	hops := appendHops(make([]hop, 0, len(p.Nodes)), &w, p.Nodes)
	cum := 0.0 // T_n^tot in seconds
	in := p.Arrival
	for i := range hops {
		h, na := &hops[i], &a.Nodes[i]
		*na = NodeAnalysis{
			Node: p.Nodes[i], GainBefore: h.gain, Rate: h.rate, MaxRate: h.maxRate, JobIn: h.jobIn,
			ArrivalRate: h.arrRate, Aggregates: h.aggregates, AggregationDelay: dur(h.agg),
			Overloaded: h.overloaded, AlphaIn: a.AlphaPrime,
			Gamma: curve.RateLatency(float64(h.maxRate), 0), // best case: no delay
		}
		th := 0.0
		if theta != nil && h.cross > 0 {
			th = theta[i]
			na.FIFOTheta = th
		}
		d, j, s, ok := h.member(th)
		if !ok {
			return nil, starvation(p, i)
		}
		d -= h.agg
		// The node's contribution to the latency recursion is the latency of
		// its service before the packetizer: with cross traffic that is the
		// left-over member's, (b + Rf·T − r·θ)/(Rf − r) up to θ₀ without the
		// packet and θ past it, not the raw T.
		cum += h.agg + h.residualLatency(th)
		na.CumulativeLatency = dur(cum)
		na.Beta = curve.RateLatency(s, d)
		if j > 0 {
			na.Beta = curve.New(0, []curve.Segment{{X: 0}, {X: d, Y: j, Slope: s}})
		}
		if i > 0 {
			na.AlphaIn = in.Envelope()
		}
		// The aggregation buffer itself holds up to one job.
		if na.Overloaded {
			na.DelayBound, na.BacklogBound = time.Duration(math.MaxInt64), units.Bytes(math.Inf(1))
		} else {
			var kb [8]knot
			delay, backlog := deviations(&in, appendKnots(kb[:0], in), d, [][2]float64{{j, s}}, true)
			na.DelayBound, na.BacklogBound = dur(delay), units.Bytes(backlog)
			if na.Aggregates {
				na.BacklogBound += na.JobIn
			}
		}
		if i+1 < len(hops) {
			in = listArrival(h.output(nil, &in, d, j, s))
		}
	}
	a.BottleneckIndex = w.bottleneck
	a.TotalLatency = dur(cum)
	a.Overloaded = w.overloaded()
	// Throughput bounds (paper Tables 1 and 3). Both are capped by the
	// offered load: a stable pipeline cannot deliver more than arrives.
	a.ThroughputLower = w.throughput()
	a.ThroughputUpper = min(w.arrival, w.minMaxRate)

	// End-to-end service curves: the paper folds the whole chain into a
	// single rate-latency node with the bottleneck rate and the cumulative
	// (aggregation-aware) latency. This equals the min-plus concatenation
	// of the per-node curves with the aggregation delays inserted as pure
	// delay elements.
	minRate, maxRate := float64(w.minRate), float64(w.minMaxRate)
	a.Beta = curve.RateLatency(minRate, cum)
	a.Gamma = curve.RateLatency(maxRate, 0)

	// Closed-form per-job estimates (valid in all three regimes; the
	// paper's §3 hypothesis for the overloaded case).
	burst := p.Arrival.envelopeAt(0) + float64(p.Arrival.MaxPacket)
	a.DelayEstimate = dur(cum + burst/minRate)
	a.BacklogEstimate = units.Bytes(burst + float64(w.arrival)*cum)

	// End-to-end bounds, and the output flow bound
	// alpha* = (alpha' ⊗ gamma) ⊘ beta; under overload the deconvolution
	// diverges and alpha' ⊗ gamma stands in for it.
	if a.Overloaded {
		a.DelayBoundInfinite, a.BacklogBoundInfinite = true, true
		a.DelayBound, a.BacklogBound = time.Duration(math.MaxInt64), units.Bytes(math.Inf(1))
		a.OutputBound = listArrival(convGamma(nil, &p.Arrival, maxRate)).Envelope()
		return a, nil
	}
	var kb [8]knot
	delay, backlog := deviations(&p.Arrival, appendKnots(kb[:0], p.Arrival), cum, [][2]float64{{0, minRate}}, true)
	a.DelayBound, a.BacklogBound = dur(delay), units.Bytes(backlog)
	a.OutputBound = listArrival(propagate(nil, &p.Arrival, maxRate, cum, 0, minRate)).Envelope()
	return a, nil
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
