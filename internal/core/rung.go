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
//	         Each θ-vector it scores costs N−1 convolutions and one HDev.
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
			full, cross := crossService(n, gain)
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
				if th := full.InverseLower(cross.Burst() + alphaPrime.Burst()); th > 0 && th < tmax && !math.IsInf(th, 1) {
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
// grids. The descent starts from the better of two seeds, the greedy fifo
// vector (kept on a tie, so the tight bound never exceeds the fifo one) and
// the vector holding every cross node's smallest positive grid entry (its
// service latency, or θmax). It then visits the cross nodes in turn, tries
// every grid value at that node with the others pinned, and keeps strict
// improvements only. It stops once every cross node has been visited without
// a move since the last one, which ends where a full sweep without a move
// would, with fewer passes. Each seed costs one chain pass; every other
// vector is scored from a memberTable, at N−1 convolutions and one HDev. A
// vector where a member starves is skipped; the search fails only when
// neither seed could be scored. The result is one analyzeWith pass at the
// winner, so it equals BoundAt there.
func analyzeTight(p Pipeline, report bool) (*Analysis, error) {
	grids, hasCross, err := tightGrids(p)
	if err != nil {
		return nil, err
	}
	if !hasCross {
		return analyzeWith(p, nil, report)
	}
	theta := make([]float64, len(p.Nodes))
	crossNodes := 0
	for i, g := range grids {
		if len(g) > 0 {
			theta[i] = g[min(1, len(g)-1)]
			crossNodes++
		}
	}
	// The seeds' chain passes. The greedy rung's scores as the pinned pass
	// at its θ-vector does.
	pg := p
	pg.Rung = RungFIFO
	greedy, _ := analyzeWith(pg, nil, false)
	latency, lerr := analyzeWith(p, theta, false)
	tab := newMemberTable(grids, greedy, latency)
	if tab == nil {
		return nil, lerr
	}

	best := make([]float64, len(p.Nodes))
	bestD := math.Inf(1)
	scored := 0
	// try scores theta and makes it the incumbent when it scores strictly
	// lower (the first vector scored always does).
	try := func(theta []float64) bool {
		d, ok := tab.score(theta)
		if !ok {
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
	for _, a := range []*Analysis{greedy, latency} {
		if a != nil {
			try(a.thetas())
		}
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

	a, err := analyzeWith(p, best, report)
	if err != nil {
		return nil, err
	}
	a.TightCombos = scored
	return a, nil
}

// memberTable holds, for one tight search, every node's curve in the chain
// of ConcatenatedBeta — [β − l_max]⁺ delayed by the node's aggregation delay —
// built once per node and θ value: once for a node without cross traffic,
// once per θ the search visits for a cross node. Gain, aggregation delay and
// arrival do not depend on θ, so one chain pass supplies them all.
type memberTable struct {
	base *Analysis
	// fixed[i] is node i's curve when it has no cross traffic; byTheta[i]
	// lists cross node i's curves built so far, never empty: a seed's curve
	// is entered for every cross node.
	fixed   []curve.Curve
	byTheta [][]thetaMember
}

type thetaMember struct {
	theta float64
	c     curve.Curve
	ok    bool
}

// newMemberTable builds the table from the seeds' chain passes (either may
// be nil, and their curves are entered as they are) over the given grids. It
// returns nil when both seeds are.
func newMemberTable(grids [][]float64, seeds ...*Analysis) *memberTable {
	t := &memberTable{fixed: make([]curve.Curve, len(grids)), byTheta: make([][]thetaMember, len(grids))}
	for _, a := range seeds {
		if a == nil {
			continue
		}
		if t.base == nil {
			t.base = a
		}
		for i, g := range grids {
			na := &a.Nodes[i]
			switch {
			case len(g) == 0:
				if a == t.base {
					t.fixed[i] = curve.ShiftRight(na.Beta, secs(na.AggregationDelay))
				}
			case t.find(i, na.FIFOTheta) < 0:
				c := curve.ShiftRight(na.Beta, secs(na.AggregationDelay))
				t.byTheta[i] = append(t.byTheta[i], thetaMember{na.FIFOTheta, c, true})
			}
		}
	}
	if t.base == nil {
		return nil
	}
	return t
}

// find returns the index in byTheta[i] of cross node i's curve at theta, or
// -1 when it is not built yet.
func (t *memberTable) find(i int, theta float64) int {
	for k, m := range t.byTheta[i] {
		if m.theta == theta {
			return k
		}
	}
	return -1
}

// member returns node i's curve at theta; ok is false when it starves.
func (t *memberTable) member(i int, theta float64) (curve.Curve, bool) {
	if t.byTheta[i] == nil {
		return t.fixed[i], true
	}
	if k := t.find(i, theta); k >= 0 {
		return t.byTheta[i][k].c, t.byTheta[i][k].ok
	}
	na := &t.base.Nodes[i]
	m := thetaMember{theta: theta}
	var beta curve.Curve
	if _, beta, m.ok = pinnedMember(na.Node, na.GainBefore, theta); m.ok {
		m.c = curve.ShiftRight(beta, secs(na.AggregationDelay))
	}
	t.byTheta[i] = append(t.byTheta[i], m)
	return m.c, m.ok
}

// score is chainDelay for the pinned chain pass at theta, from the table:
// bit for bit the same value, without the pass. ok is false when a member
// starves.
func (t *memberTable) score(theta []float64) (seconds float64, ok bool) {
	var chain curve.Curve
	for i, th := range theta {
		c, ok := t.member(i, th)
		if !ok {
			return 0, false
		}
		if i == 0 {
			chain = c
		} else {
			chain = curve.Convolve(chain, c)
		}
	}
	return curve.HDev(t.base.AlphaPrime, chain), true
}
