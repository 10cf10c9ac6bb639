package core

import (
	"fmt"
	"math"

	"streamcalc/internal/curve"
)

// Rung selects the multi-flow analysis tightness for nodes that carry cross
// traffic — the accuracy/tractability knob of the FIFO ladder. Every rung
// produces sound bounds. Climbing the ladder only tightens the delay bound:
// fifo and tight choose θ for delay, so their backlog bound may exceed a
// lower rung's (tight's exceeds fifo's on 287 of 9 524 seed-25 random
// pipelines, by up to 57 %), and a backlog SLO fifo meets can fail at tight.
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
//	         Each θ-vector it scores is one chain evaluation in scalars
//	         (ChainBound's): O(N·J) for N nodes and J arrival buckets,
//	         no curve built.
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
	w := newWalk(p.Arrival)
	for i := range p.Nodes {
		var h hop
		if w.next(&p.Nodes[i], &h); h.cross == 0 {
			continue
		}
		full, cross := h.service()
		g := curve.FIFOThetaCandidates(full, cross)
		if g == nil {
			return nil, false, starvation(p, i)
		}
		// Arrival-aware candidate (see FIFOResidualBest): where the
		// post-theta service jump just covers the cross plus source bursts.
		// The source envelope is an over-approximation of the propagated
		// arrival at inner nodes, which only affects grid quality, never
		// soundness.
		if tmax := g[len(g)-1]; tmax > 0 {
			if th := full.InverseLower(cross.Burst() + alphaPrime.Burst()); th > 0 && th < tmax && !math.IsInf(th, 1) {
				g = curve.FIFOThetaInsert(g, th)
			}
		}
		grids[i] = g
		hasCross = true
	}
	return grids, hasCross, nil
}

// analyzeTight runs the tight rung's search and returns the winning θ-vector
// (nil when no node carries cross traffic) and the number of vectors it
// scored: a coordinate descent over the per-node θ grids. The descent starts
// from the better of two seeds, the greedy fifo vector (kept on a tie, so the
// tight bound never exceeds the fifo one) and the vector holding every cross
// node's smallest positive grid entry (its service latency, or θmax). It then
// visits the cross nodes in turn, tries every grid value at that node with
// the others pinned, and keeps strict improvements only. It stops once every
// cross node has been visited without a move since the last one, which ends
// where a full sweep without a move would, with fewer passes. Only the grids
// and the greedy seed build curves: the chain evaluator scores every vector,
// in O(N·J) scalars from inputs built once. A vector where a member starves
// is skipped; the search fails only when neither seed could be scored.
func analyzeTight(p Pipeline) (best []float64, scored int, err error) {
	grids, hasCross, err := tightGrids(p)
	if err != nil || !hasCross {
		return nil, 0, err
	}
	var hb [8]hop
	var kb [8]knot
	w := newWalk(p.Arrival)
	hops, knots := appendHops(hb[:0], &w, p.Nodes), appendKnots(kb[:0], p.Arrival)
	theta := make([]float64, len(p.Nodes))
	crossNodes := 0
	for i, g := range grids {
		if len(g) > 0 {
			theta[i] = g[min(1, len(g)-1)]
			crossNodes++
		}
	}
	pg := p
	pg.Rung = RungFIFO
	greedy, _ := analyzeWith(pg, nil, false)

	best = make([]float64, len(p.Nodes))
	bestD := math.Inf(1)
	starved := -1
	// try scores theta and makes it the incumbent when it scores strictly
	// lower (the first vector scored always does).
	try := func(theta []float64) bool {
		d, _, at := chainAt(hops, &p.Arrival, knots, w.overloaded(), theta, false)
		if at >= 0 {
			starved = at
			return false
		}
		scored++
		if scored == 1 || d < bestD {
			copy(best, theta)
			bestD = d
			return true
		}
		return false
	}
	if greedy != nil {
		try(greedy.thetas())
	}
	if try(theta); scored == 0 {
		return nil, 0, starvation(p, starved)
	}
	for i, quiet := 0, 0; quiet < crossNodes; i = (i + 1) % len(grids) {
		if len(grids[i]) == 0 {
			continue
		}
		moved := false
		for _, th := range grids[i] {
			if copy(theta, best); th != theta[i] {
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
	return best, scored, nil
}
