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

// engineChain is the curve engine's chain pass at theta (nil: the rung's own
// residuals, the greedy pass's at fifo), the oracle ChainBound is held to:
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

// AnalyzeTightExhaustive is the reference for the tight rung's coordinate
// descent: one chain pass per θ-vector of the full lattice of the same
// per-node grids, first node most significant, keeping the exact minimum
// (ties to the lowest index), and the greedy fifo vector when that scores
// strictly lower. The report pass runs at the winner; TightCombos is the
// lattice size.
func AnalyzeTightExhaustive(p Pipeline) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Rung = RungTight
	grids, hasCross, err := tightGrids(p)
	if err != nil {
		return nil, err
	}
	if !hasCross {
		return analyzeWith(p, nil, true)
	}
	combos := 1
	for _, g := range grids {
		if len(g) > 0 {
			combos *= len(g)
		}
	}
	scores := make([]float64, combos)
	errs := make([]error, combos)
	for idx := range scores {
		a, err := analyzeWith(p, decodeTight(grids, idx), false)
		if err != nil {
			errs[idx] = err // score every vector; only all-errored fails below
			continue
		}
		_, scores[idx] = a.chainDelay()
	}
	best := bestIndex(scores, errs)
	if best < 0 {
		// Every vector errored: report the lowest-index error.
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
	}
	win := decodeTight(grids, best)
	pg := p
	pg.Rung = RungFIFO
	if ga, err := analyzeWith(pg, nil, false); err == nil {
		if _, d := ga.chainDelay(); d < scores[best] {
			for i := range win {
				win[i] = ga.Nodes[i].FIFOTheta
			}
		}
	}
	a, err := analyzeWith(p, win, true)
	if err != nil {
		return nil, err
	}
	a.TightCombos = combos
	return a, nil
}

// bestIndex returns the index of the smallest score among the vectors that
// did not error, ties keeping the lowest index, or -1 when every vector
// errored. Skipping errored entries (instead of bailing on the first) is
// what lets a partially failed sweep still return its true minimum.
func bestIndex(scores []float64, errs []error) int {
	best := -1
	for i := range scores {
		if errs[i] != nil {
			continue
		}
		if best < 0 || scores[i] < scores[best] {
			best = i
		}
	}
	return best
}

// decodeTight maps a leaf index onto its θ-vector with the first node as the
// most significant digit — the exhaustive reference's enumeration order.
func decodeTight(grids [][]float64, idx int) []float64 {
	thetas := make([]float64, len(grids))
	for i := len(grids) - 1; i >= 0; i-- {
		g := grids[i]
		if len(g) == 0 {
			continue
		}
		thetas[i] = g[idx%len(g)]
		idx /= len(g)
	}
	return thetas
}
