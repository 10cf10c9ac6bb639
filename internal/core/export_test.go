package core

import (
	"math"
	"time"

	"streamcalc/internal/curve"
	"streamcalc/internal/units"
)

// chainDelay is the curve engine's promised delay: the horizontal deviation,
// in seconds, between AlphaPrime and the concatenated chain curve, which it
// also returns.
func (a *Analysis) chainDelay() (chain curve.Curve, seconds float64) {
	chain = a.ConcatenatedBeta()
	return chain, curve.HDev(a.AlphaPrime, chain)
}

// engineChain is the curve engine's chain pass at theta (nil: the blind
// residual at every cross node), the oracle ChainBound is held to:
// engineAnalyze, then the horizontal and vertical deviation between AlphaPrime
// and ConcatenatedBeta, both +Inf when the chain is overloaded.
func engineChain(p Pipeline, theta []float64) (a *Analysis, delay, backlog float64, err error) {
	if a, err = engineAnalyze(p, theta, false); err != nil {
		return nil, 0, 0, err
	}
	delay, backlog = math.Inf(1), math.Inf(1)
	if !a.Overloaded {
		var chain curve.Curve
		chain, delay = a.chainDelay()
		backlog = curve.VDev(a.AlphaPrime, chain)
	}
	return a, delay, backlog, nil
}

// RungDelayBound is a convenience for sweeps: the end-to-end delay bound of
// the concatenated chain curve at the given rung, in seconds (+Inf when
// overloaded or starved).
func RungDelayBound(p Pipeline, r Rung) float64 {
	p.Rung = r
	a, err := Analyze(p)
	if err != nil || a.Overloaded {
		return math.Inf(1)
	}
	_, d := a.chainDelay()
	return d
}

// engineAnalyze is the report pass over curves, the oracle the scalar one is
// held to: the node loop convolves and deconvolves the propagated arrival
// through every node's curves. A non-nil thetas slice (indexed by node) pins
// the FIFO left-over θ at every cross node (entries elsewhere are ignored);
// with thetas nil a cross node takes the blind residual. The chain pass,
// report unset, builds per node the normalisation, Beta and θ, and of the
// chain Alpha, AlphaPrime, ThroughputLower, Overloaded and BottleneckIndex:
// the curve-engine oracle ChainBound is tested against. The report pass fills
// in every other field of Analysis and NodeAnalysis.
func engineAnalyze(p Pipeline, thetas []float64, report bool) (*Analysis, error) {
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
	cumLatency := 0.0 // T_n^tot in seconds
	alphaIn := alphaPrime

	for i, n := range p.Nodes {
		var h hop
		w.next(&p.Nodes[i], &h)
		na := NodeAnalysis{
			Node: n, GainBefore: h.gain, Rate: h.rate, MaxRate: h.maxRate, JobIn: h.jobIn,
			ArrivalRate: h.arrRate, Aggregates: h.aggregates, AggregationDelay: dur(h.agg),
			Overloaded: h.overloaded,
		}

		// Packetized service curves (input-referred). With cross traffic the
		// base curve is the residual [beta_full - alpha_cross]⁺, whose
		// latency (b_c + R·T)/(R - r_c) — not the raw T — is what the node
		// contributes to the end-to-end latency recursion: the folded chain
		// curve must stay below the concatenation of the residual curves.
		effLatency := secs(n.Latency)
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
			effLatency = resid.Latency()
		} else {
			resid = curve.RateLatency(h.full, secs(n.Latency))
		}
		beta := resid
		if h.lmax > 0 {
			beta = curve.SubConstantPositive(resid, h.lmax) // the packetizer's [β − l_max]⁺
		}
		cumLatency += h.agg + effLatency
		na.CumulativeLatency = dur(cumLatency)
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
	a.TotalLatency = dur(cumLatency)
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
	a.Beta = curve.RateLatency(float64(w.minRate), cumLatency)
	a.Gamma = curve.RateLatency(float64(w.minMaxRate), 0)

	// Closed-form per-job estimates (valid in all three regimes; the
	// paper's §3 hypothesis for the overloaded case).
	a.DelayEstimate = dur(cumLatency + a.AlphaPrime.Burst()/float64(w.minRate))
	a.BacklogEstimate = units.Bytes(a.AlphaPrime.Burst() + float64(w.arrival)*cumLatency)

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
// packetized service curves, with each node's aggregation delay (in seconds,
// as the chain evaluator shifts by it, not the rounded-up AggregationDelay)
// inserted as a pure-delay element. Unlike the folded rate-latency Beta (the paper's
// closed form, which carries the packetizer adjustment on the arrival side
// only), this curve subtracts l_max at every hop, so delay and backlog
// bounds derived from it remain valid for multi-hop store-and-forward
// chains — the sound choice when the bounds back admission promises.
func (a *Analysis) ConcatenatedBeta() curve.Curve {
	var out curve.Curve
	agg := aggDelays(a)
	for i, na := range a.Nodes {
		b := curve.ShiftRight(na.Beta, agg[i])
		if i == 0 {
			out = b
		} else {
			out = curve.Convolve(out, b)
		}
	}
	return out
}

// aggDelays is every node's aggregation delay in seconds, walked afresh from
// a's pipeline.
func aggDelays(a *Analysis) []float64 {
	w := newWalk(a.Pipeline.Arrival)
	out := make([]float64, len(a.Nodes))
	for i, h := range appendHops(nil, &w, a.Pipeline.Nodes) {
		out[i] = h.agg
	}
	return out
}
