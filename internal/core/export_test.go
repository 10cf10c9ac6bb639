package core

import (
	"math"

	"streamcalc/internal/curve"
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
// analyzeWith, then the horizontal and vertical deviation between AlphaPrime
// and ConcatenatedBeta, both +Inf when the chain is overloaded.
func engineChain(p Pipeline, theta []float64) (a *Analysis, delay, backlog float64, err error) {
	if a, err = analyzeWith(p, theta, false); err != nil {
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
