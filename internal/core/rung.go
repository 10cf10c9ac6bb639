package core

import "fmt"

// Rung selects the multi-flow analysis tightness for nodes that carry cross
// traffic — the accuracy/tractability knob of the FIFO ladder. Every rung
// produces sound bounds, and fifo and tight never promise more delay or
// backlog than blind.
//
//	blind  — arbitrary-order multiplexing residual [beta - alpha_cross]⁺.
//	         No FIFO assumption, the loosest bound.
//	fifo   — the member of the theta-parameterized FIFO left-over family
//	         at every cross node, the whole vector chosen at once to
//	         minimize the end-to-end delay bound of the concatenated chain
//	         curve over the capped box: each theta between 0 and the
//	         node's blind residual latency (curve.FIFOThetaMax), where the
//	         member dominates the blind residual pointwise. The minimum is
//	         exact, found in O(N·J + N²) scalars for N nodes and J arrival
//	         knots (see thetaOptimum), with no grid and no curve built.
//	tight  — the same vector as fifo. It stays a rung of its own, with its
//	         own name, for the callers that select it.
//
// The vector minimizes delay only: a backlog SLO is judged at the same
// vector, which need not be the one with the least backlog.
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
