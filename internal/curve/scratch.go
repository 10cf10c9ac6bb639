package curve

// Scratch holds per-worker reusable buffers for the hot deviation queries of
// a lattice search. The tight-rung enumeration in internal/core scores one
// HDev per θ-vector; the package function would allocate two breakpoint
// slices per leaf. Scratch.HDev runs the identical kernel on reused
// breakpoint buffers instead: zero steady-state allocation and — because it
// is the same candidate evaluation on the same immutable curves — results
// that are bitwise identical to HDev's. It is not reported to the OpTimer:
// the search it serves is timed as part of its analysis.
//
// A Scratch is not safe for concurrent use; give each worker its own.
type Scratch struct {
	fbp, gbp []float64
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// retained across calls.
func NewScratch() *Scratch { return &Scratch{} }

// HDev computes the horizontal deviation h(f, g) exactly like the package
// function HDev, reusing internal buffers.
func (s *Scratch) HDev(f, g Curve) float64 {
	s.fbp = f.appendBreakpoints(s.fbp[:0])
	s.gbp = g.appendBreakpoints(s.gbp[:0])
	return hDevOn(f, g, s.fbp, s.gbp)
}
