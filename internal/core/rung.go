package core

import (
	"fmt"
	"math"

	"streamcalc/internal/curve"
)

// Rung selects the multi-flow analysis tightness for nodes that carry cross
// traffic — the accuracy/tractability knob of the FIFO ladder. Every rung
// produces sound bounds; climbing the ladder only tightens them:
//
//	blind  — arbitrary-order multiplexing residual [beta - alpha_cross]⁺.
//	         No FIFO assumption, cheapest, loosest.
//	fifo   — per-node greedy member of the theta-parameterized FIFO
//	         left-over family, theta chosen to minimize that node's delay
//	         bound against its propagated arrival. Each chosen member
//	         dominates the blind residual pointwise, so the end-to-end
//	         bound never regresses.
//	tight  — joint choice of the per-node theta values: a coordinate
//	         descent over the same dominance-safe per-node grids (see
//	         analyzeTight), seeded from the greedy fifo vector, minimizing
//	         the end-to-end delay bound of the concatenated chain curve.
//	         Each θ-vector it scores costs one chain pass.
type Rung uint8

const (
	// RungDefault is the zero value and resolves to RungBlind, keeping
	// zero-valued Pipeline literals on the pre-ladder behavior.
	RungDefault Rung = iota
	RungBlind
	RungFIFO
	RungTight
)

// Resolved maps RungDefault to RungBlind and leaves other values alone.
func (r Rung) Resolved() Rung {
	if r == RungDefault {
		return RungBlind
	}
	return r
}

// String returns the wire name of the resolved rung.
func (r Rung) String() string {
	switch r.Resolved() {
	case RungBlind:
		return "blind"
	case RungFIFO:
		return "fifo"
	case RungTight:
		return "tight"
	default:
		return fmt.Sprintf("Rung(%d)", uint8(r))
	}
}

// ParseRung parses a wire name; "" and "default" resolve to RungDefault so
// callers can distinguish "explicitly blind" from "unset".
func ParseRung(s string) (Rung, error) {
	switch s {
	case "", "default":
		return RungDefault, nil
	case "blind":
		return RungBlind, nil
	case "fifo":
		return RungFIFO, nil
	case "tight":
		return RungTight, nil
	}
	return RungDefault, fmt.Errorf("core: unknown analysis rung %q (want blind, fifo or tight)", s)
}

// Rungs lists the ladder in ascending tightness, for sweeps and flags.
func Rungs() []Rung { return []Rung{RungBlind, RungFIFO, RungTight} }

// tightGrids builds the per-cross-node dominance-safe θ grids (nil at nodes
// without cross traffic) and inserts the arrival-aware candidate with
// near-equal dedupe.
func tightGrids(p Pipeline) (grids [][]float64, hasCross bool, err error) {
	alphaPrime := p.Arrival.PacketizedEnvelope()
	grids = make([][]float64, len(p.Nodes))
	gain := 1.0
	for i, n := range p.Nodes {
		if n.CrossRate > 0 {
			full := curve.RateLatency(float64(n.Rate.Mul(1/gain)), secs(n.Latency))
			cross := curve.Affine(float64(n.CrossRate.Mul(1/gain)), float64(n.CrossBurst.Mul(1/gain)))
			g := curve.FIFOThetaCandidates(full, cross)
			if g == nil {
				return nil, false, fmt.Errorf("core: node %d (%s): cross traffic starves the node", i, n.Name)
			}
			// Arrival-aware candidate (see FIFOResidualBest): where the
			// post-theta service jump just covers the cross plus source
			// bursts. The source envelope is an over-approximation of the
			// propagated arrival at inner nodes, which only affects grid
			// quality, never soundness.
			if tmax := g[len(g)-1]; tmax > 0 {
				if th := full.InverseLower(float64(n.CrossBurst.Mul(1/gain)) + alphaPrime.Burst()); th > 0 && th < tmax && !math.IsInf(th, 1) {
					g = curve.FIFOThetaInsert(g, th)
				}
			}
			grids[i] = g
			hasCross = true
		}
		gain *= n.Gain()
	}
	return grids, hasCross, nil
}

// analyzeTight runs the tight rung: a coordinate descent over the per-node θ
// grids. Each θ-vector is scored by one chain pass. The descent starts from
// the better of two seeds, the greedy fifo vector (kept on a tie, so the
// tight bound never exceeds the fifo one) and the vector holding every cross
// node's smallest positive grid entry (its service latency, or θmax). It then
// visits the cross nodes in turn, tries every grid value at that node with
// the others pinned, and keeps strict improvements only. It stops once every
// cross node has been visited without a move since the last one, which ends
// where a full sweep without a move would, with fewer passes. Every pass of
// the search is a chain pass; with report set, one report pass runs at the
// winner. A vector whose pass fails is skipped; the search fails only when
// neither seed could be scored.
func analyzeTight(p Pipeline, report bool) (*Analysis, error) {
	grids, hasCross, err := tightGrids(p)
	if err != nil {
		return nil, err
	}
	if !hasCross {
		return analyzeWith(p, nil, report)
	}
	var best *Analysis
	var bestD float64
	scored := 0
	// keep makes a the incumbent when it scores strictly lower.
	keep := func(a *Analysis) bool {
		scored++
		if _, d := a.chainDelay(); best == nil || d < bestD {
			best, bestD = a, d
			return true
		}
		return false
	}
	try := func(theta []float64) bool {
		a, aerr := analyzeWith(p, theta, false)
		if aerr != nil {
			err = aerr
			return false
		}
		return keep(a)
	}

	// The greedy rung's own chain pass is the pinned pass at its θ-vector
	// but for the rung it is labelled with.
	pg := p
	pg.Rung = RungFIFO
	if ga, gerr := analyzeWith(pg, nil, false); gerr == nil {
		ga.Rung = p.Rung.Resolved()
		keep(ga)
	} else {
		err = gerr
	}
	theta := make([]float64, len(p.Nodes))
	crossNodes := 0
	for i, g := range grids {
		if len(g) > 0 {
			theta[i] = g[min(1, len(g)-1)]
			crossNodes++
		}
	}
	try(theta)
	if best == nil {
		return nil, err
	}
	incumbent := func() []float64 {
		for j := range theta {
			theta[j] = best.Nodes[j].FIFOTheta
		}
		return theta
	}

	for i, quiet := 0, 0; quiet < crossNodes; i = (i + 1) % len(grids) {
		if len(grids[i]) == 0 {
			continue
		}
		moved := false
		for _, th := range grids[i] {
			if theta := incumbent(); th != theta[i] {
				theta[i] = th
				moved = try(theta) || moved
			}
		}
		if moved {
			quiet = 1
		} else {
			quiet++
		}
	}

	if report {
		if best, err = analyzeWith(p, incumbent(), true); err != nil {
			return nil, err
		}
	}
	best.TightCombos = scored
	return best, nil
}
