package core

import (
	"math"

	"streamcalc/internal/pool"
)

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

// AnalyzeTightBudget runs the tight rung with an explicit lattice budget
// (maxCombos <= 0 uses the built-in default, which is all Analyze uses).
func AnalyzeTightBudget(p Pipeline, maxCombos int) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Rung = RungTight
	return analyzeTightBudget(p, maxCombos, true)
}

// AnalyzeTightExhaustive is the pre-DP reference implementation of the tight
// rung: one full pipeline analysis per θ-vector over the same grids, the
// same leaf order (first node most significant), and the same exact-minimum
// selection as the prefix-sharing search, so the two return bit-identical
// winning vectors. It is the differential test's reference and the
// BenchmarkTightLattice baseline.
func AnalyzeTightExhaustive(p Pipeline, maxCombos int) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Rung = RungTight
	grids, combos, hasCross, err := tightGrids(p, maxCombos)
	if err != nil {
		return nil, err
	}
	if !hasCross {
		return analyzeWith(p, nil, true)
	}
	scores := make([]float64, combos)
	errs := make([]error, combos)
	_ = pool.ForEach(nil, 0, combos, nil, func(idx int) error {
		a, err := analyzeWith(p, decodeTight(grids, idx), true)
		if err != nil {
			errs[idx] = err
			return nil // evaluate every vector; only all-errored fails below
		}
		_, scores[idx] = a.chainDelay()
		return nil
	})
	best := bestIndex(scores, errs)
	if best < 0 {
		// Every vector errored: report the lowest-index error.
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
	}
	// The reference keeps its own greedy-vs-winner tail, apart from tightPick,
	// so the differential test covers the production tail too.
	if greedy := tightGreedy(p); greedy != nil {
		if ga, err := analyzeWith(p, greedy, true); err == nil {
			if _, d := ga.chainDelay(); d < scores[best]*(1-1e-12) {
				ga.TightCombos = combos
				return ga, nil
			}
		}
	}
	a, err := analyzeWith(p, decodeTight(grids, best), true)
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
// most significant digit — the exhaustive reference's enumeration order,
// chosen to match the DP search's depth-first leaf order so score ties
// resolve to the same vector in both implementations.
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
