package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"streamcalc/internal/curve"
	"streamcalc/internal/pool"
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
//	tight  — joint optimization of the per-node theta grids (the exact
//	         small-topology formulation): the dominance-safe theta lattice
//	         is searched by a prefix-sharing depth-first walk with
//	         branch-and-bound pruning (see analyzeTight), minimizing the
//	         end-to-end delay bound of the concatenated chain curve. Cost
//	         grows with the number of lattice edges actually expanded, not
//	         with combos × nodes.
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

// tightMaxCombos caps the joint theta-vector lattice; per-node grids are
// thinned (endpoints kept) until the product fits. The prefix-sharing search
// costs roughly one convolution and one HDev per expanded lattice edge
// instead of a full pipeline analysis per vector, so the cap sits 32x above
// the pre-DP exhaustive budget of 2048: full-resolution grids on 4-6 cross
// nodes fit without thinning.
const tightMaxCombos = 1 << 16

// Cumulative tight-rung search effort, exported for telemetry
// (nc_rung_combos_total / nc_rung_pruned_total in internal/admit).
var (
	rungCombosTotal atomic.Uint64
	rungPrunedTotal atomic.Uint64
)

// RungSearchStats reports the process-wide cumulative tight-rung lattice
// counters: θ-vectors scored and θ-vectors skipped by branch-and-bound
// pruning. combos+pruned is the total lattice size the searches covered.
func RungSearchStats() (combos, pruned uint64) {
	return rungCombosTotal.Load(), rungPrunedTotal.Load()
}

// tightGrids builds the per-cross-node dominance-safe theta grids (nil at
// nodes without cross traffic), inserts the arrival-aware candidate with
// near-equal dedupe, and thins the largest grids until the lattice fits
// maxCombos (<= 0 means the default tightMaxCombos).
func tightGrids(p Pipeline, maxCombos int) (grids [][]float64, combos int, hasCross bool, err error) {
	alphaPrime := p.Arrival.PacketizedEnvelope()
	grids = make([][]float64, len(p.Nodes))
	gain := 1.0
	combos = 1
	for i, n := range p.Nodes {
		if n.CrossRate > 0 {
			full := curve.RateLatency(float64(n.Rate.Mul(1/gain)), secs(n.Latency))
			cross := curve.Affine(float64(n.CrossRate.Mul(1/gain)), float64(n.CrossBurst.Mul(1/gain)))
			g := curve.FIFOThetaCandidates(full, cross)
			if g == nil {
				return nil, 0, false, fmt.Errorf("core: node %d (%s): cross traffic starves the node", i, n.Name)
			}
			// Arrival-aware candidate (see FIFOResidualBest): where the
			// post-theta service jump just covers the cross plus source
			// bursts. The source envelope is an over-approximation of the
			// propagated arrival at inner nodes, which only affects grid
			// quality, never soundness. The deduping insert keeps a
			// candidate that coincides with a structural breakpoint from
			// silently doubling a slice of the lattice.
			if tmax := g[len(g)-1]; tmax > 0 {
				if th := full.InverseLower(float64(n.CrossBurst.Mul(1/gain)) + alphaPrime.Burst()); th > 0 && th < tmax && !math.IsInf(th, 1) {
					g = curve.FIFOThetaInsert(g, th)
				}
			}
			grids[i] = g
			combos *= len(g)
			hasCross = true
		}
		gain *= n.Gain()
	}
	if maxCombos <= 0 {
		maxCombos = tightMaxCombos
	}
	for combos > maxCombos {
		// Thin the largest grid to half, keeping its endpoints.
		li := -1
		for i, g := range grids {
			if li < 0 || len(g) > len(grids[li]) {
				if len(g) > 2 {
					li = i
				}
			}
		}
		if li < 0 {
			break // every grid already minimal
		}
		combos /= len(grids[li])
		grids[li] = thinGrid(grids[li], (len(grids[li])+1)/2)
		combos *= len(grids[li])
	}
	return grids, combos, hasCross, nil
}

// tightGreedy returns the per-node greedy FIFO θ-vector, or nil when the
// greedy pass fails.
func tightGreedy(p Pipeline) []float64 {
	pg := p
	pg.Rung = RungFIFO
	ga, err := analyzeWith(pg, nil, false)
	if err != nil {
		return nil
	}
	greedy := make([]float64, len(p.Nodes))
	for i, na := range ga.Nodes {
		greedy[i] = na.FIFOTheta
	}
	return greedy
}

// tightSearch is the immutable per-search state shared by all workers of the
// prefix-sharing lattice walk.
//
// The search exploits the separability of the tight-rung score: for a pinned
// θ-vector the scored chain curve is the left fold
//
//	⊗_i ShiftRight(SubConstantPositive(residual_i(θ_i), lmax_i), agg_i)
//
// where only the cross-node residual depends on θ_i — the aggregation
// delays, packetizer terms, and non-cross betas are all θ-independent (they
// come from one base analysis pass). So each node contributes a small menu
// of chain elements, built once per θ candidate (O(Σ|grid_i|) curve
// constructions), and sibling vectors sharing a θ-prefix share the partial
// chain convolution: each expanded lattice edge costs one convolution, and
// each leaf one HDev.
type tightSearch struct {
	alphaPrime curve.Curve
	// elems[i] holds node i's candidate chain elements, indexed like
	// grids[i]; a single entry at nodes without cross traffic.
	elems [][]curve.Curve
	// leaves[k] is the number of lattice leaves below level k
	// (Π_{i>=k} len(elems[i])); leaves[len(elems)] = 1.
	leaves []int
	// sufMax[k] is the best-possible suffix chain from level k on: the
	// convolution of the per-level pointwise maxima. Any realizable suffix
	// chain is pointwise below it, so (prefix ⊗ sufMax) bounds every
	// completion's score from below (HDev is anti-monotone in the service
	// curve) — the branch-and-bound cut.
	sufMax []curve.Curve
	// pruneAt[k] marks the levels where the cut is worth evaluating: a
	// choice level with further choices below it.
	pruneAt []bool
}

// newTightSearch precomputes the per-candidate chain elements and the
// branch-and-bound suffix bounds. base is a completed chain pass at θ = 0
// everywhere, supplying every θ-independent ingredient.
func newTightSearch(p Pipeline, base *Analysis, grids [][]float64) (*tightSearch, error) {
	n := len(p.Nodes)
	s := &tightSearch{alphaPrime: base.AlphaPrime, elems: make([][]curve.Curve, n)}
	gain := 1.0
	for i, node := range p.Nodes {
		agg := secs(base.Nodes[i].AggregationDelay)
		if len(grids[i]) == 0 {
			// No choice at this level: the base pass's packetized beta is
			// exactly what any θ-vector's analysis would produce here.
			s.elems[i] = []curve.Curve{curve.ShiftRight(base.Nodes[i].Beta, agg)}
		} else {
			full := curve.RateLatency(float64(node.Rate.Mul(1/gain)), secs(node.Latency))
			crossC := curve.Affine(float64(node.CrossRate.Mul(1/gain)), float64(node.CrossBurst.Mul(1/gain)))
			lmax := float64(node.MaxPacket.Mul(1 / gain))
			es := make([]curve.Curve, len(grids[i]))
			for j, th := range grids[i] {
				resid, ok := curve.FIFOResidual(full, crossC, th)
				if !ok {
					// Unreachable once the base pass succeeded (starvation
					// is θ-independent); kept as a hard error for safety.
					return nil, fmt.Errorf("core: node %d (%s): cross traffic starves the node", i, node.Name)
				}
				beta := resid
				if lmax > 0 {
					beta = curve.SubConstantPositive(beta, lmax)
				}
				es[j] = curve.ShiftRight(beta, agg)
			}
			s.elems[i] = es
		}
		gain *= node.Gain()
	}
	s.leaves = make([]int, n+1)
	s.leaves[n] = 1
	for k := n - 1; k >= 0; k-- {
		s.leaves[k] = s.leaves[k+1] * len(s.elems[k])
	}
	s.sufMax = make([]curve.Curve, n)
	for k := n - 1; k >= 0; k-- {
		lm := s.elems[k][0]
		for _, e := range s.elems[k][1:] {
			lm = curve.Max(lm, e)
		}
		if k < n-1 {
			lm = curve.Convolve(lm, s.sufMax[k+1])
		}
		s.sufMax[k] = lm
	}
	s.pruneAt = make([]bool, n)
	for k := 0; k < n; k++ {
		s.pruneAt[k] = len(s.elems[k]) > 1 && k+1 < n && s.leaves[k+1] > 1
	}
	return s, nil
}

// prunePad guards the branch-and-bound cut against floating-point drift
// between the folded suffix-max curves and the exactly scored leaves: a
// subtree is skipped only when its lower bound clears the incumbent by more
// than the accumulated kernel tolerance, so pruning can never drop a leaf
// the exhaustive reference would have selected — the bit-identity contract
// of TestTightMatchesExhaustive.
const prunePad = 1e-6

// tightWorker walks one top-level branch of the lattice depth-first,
// carrying the prefix convolution down and reusing its buffers across every
// leaf: the steady-state walk allocates nothing per vector.
type tightWorker struct {
	s       *tightSearch
	scratch *curve.Scratch
	vec     []int // candidate index per level of the current path
	bestVec []int
	best    float64
	hasBest bool
	combos  int
	pruned  int
}

func newTightWorker(s *tightSearch) *tightWorker {
	n := len(s.elems)
	return &tightWorker{
		s: s, scratch: curve.NewScratch(),
		vec: make([]int, n), bestVec: make([]int, n),
		best: math.Inf(1),
	}
}

// leaf scores one complete chain. Strict improvement is required to replace
// the incumbent, so score ties keep the earliest leaf in depth-first order —
// the same lowest-index rule the exhaustive reference applies.
func (w *tightWorker) leaf(chain curve.Curve) {
	w.combos++
	score := w.scratch.HDev(w.s.alphaPrime, chain)
	if !w.hasBest || score < w.best {
		w.hasBest = true
		w.best = score
		copy(w.bestVec, w.vec)
	}
}

// dfs expands the lattice below level k with the prefix chain ⊗-folded so
// far. Runs of single-candidate levels fold eagerly; at choice levels the
// branch-and-bound cut skips subtrees whose lower bound cannot beat the
// incumbent.
func (w *tightWorker) dfs(k int, prefix curve.Curve) {
	s := w.s
	n := len(s.elems)
	for k < n && len(s.elems[k]) == 1 {
		w.vec[k] = 0
		prefix = curve.Convolve(prefix, s.elems[k][0])
		k++
	}
	if k == n {
		w.leaf(prefix)
		return
	}
	for j, e := range s.elems[k] {
		w.vec[k] = j
		next := curve.Convolve(prefix, e)
		if s.pruneAt[k] && w.hasBest {
			lb := w.scratch.HDev(s.alphaPrime, curve.Convolve(next, s.sufMax[k+1]))
			if lb >= w.best+prunePad*(1+math.Abs(w.best)) {
				w.pruned += s.leaves[k+1]
				continue
			}
		}
		w.dfs(k+1, next)
	}
}

type tightResult struct {
	ok             bool
	score          float64
	vec            []int
	combos, pruned int
}

func (w *tightWorker) result() tightResult {
	return tightResult{ok: w.hasBest, score: w.best, vec: w.bestVec, combos: w.combos, pruned: w.pruned}
}

// analyzeTightBudget runs the prefix-sharing θ-lattice search: build the
// dominance-safe grids, precompute each node's candidate chain elements
// once, then walk the lattice depth-first — fanning the top-level branches
// over the worker pool — keeping the θ-vector that minimizes the end-to-end
// delay bound of the concatenated chain curve. Score ties keep the
// lexicographically smallest vector (lattice leaves are visited in
// lexicographic θ-index order and only strict improvements replace the
// incumbent), making the result deterministic at any worker count and never
// worse than the blind rung. Every pass of the search is a chain pass; the
// report rides on the pass that is returned, when report is set.
func analyzeTightBudget(p Pipeline, maxCombos int, report bool) (*Analysis, error) {
	grids, _, hasCross, err := tightGrids(p, maxCombos)
	if err != nil {
		return nil, err
	}
	if !hasCross {
		return analyzeWith(p, nil, report)
	}
	// Base pass at θ = 0 everywhere: supplies every θ-independent ingredient
	// (aggregation delays, non-cross betas, the packetized source envelope).
	// Analysis errors are θ-independent — the θ = 0 vector failing means
	// every vector fails, which is the only condition the search reports as
	// an error.
	base, err := analyzeWith(p, make([]float64, len(p.Nodes)), false)
	if err != nil {
		return nil, err
	}
	s, err := newTightSearch(p, base, grids)
	if err != nil {
		return nil, err
	}

	n := len(s.elems)
	c0 := 0
	for c0 < n && len(s.elems[c0]) == 1 {
		c0++
	}
	var results []tightResult
	if c0 == n {
		// Degenerate single-vector lattice.
		w := newTightWorker(s)
		chain := s.elems[0][0]
		for i := 1; i < n; i++ {
			chain = curve.Convolve(chain, s.elems[i][0])
		}
		w.leaf(chain)
		results = []tightResult{w.result()}
	} else {
		var pre curve.Curve
		hasPre := c0 > 0
		if hasPre {
			pre = s.elems[0][0]
			for i := 1; i < c0; i++ {
				pre = curve.Convolve(pre, s.elems[i][0])
			}
		}
		results = make([]tightResult, len(s.elems[c0]))
		_ = pool.ForEach(nil, 0, len(results), nil, func(b int) error {
			w := newTightWorker(s)
			w.vec[c0] = b
			p0 := s.elems[c0][b]
			if hasPre {
				p0 = curve.Convolve(pre, p0)
			}
			w.dfs(c0+1, p0)
			results[b] = w.result()
			return nil
		})
	}

	// Merge in branch order: branch index is the most significant digit of
	// the leaf order, so "first strict minimum" stays the lexicographically
	// smallest winning vector regardless of worker count.
	bestB := -1
	totCombos, totPruned := 0, 0
	for b := range results {
		r := &results[b]
		totCombos += r.combos
		totPruned += r.pruned
		if !r.ok {
			continue
		}
		if bestB < 0 || r.score < results[bestB].score {
			bestB = b
		}
	}
	rungCombosTotal.Add(uint64(totCombos))
	rungPrunedTotal.Add(uint64(totPruned))
	if bestB < 0 {
		// Unreachable — every branch scores its first leaf before pruning
		// can engage — but guard rather than return a nil analysis.
		return nil, fmt.Errorf("core: tight-rung search expanded no candidate vector")
	}
	win := make([]float64, n)
	for i, g := range grids {
		if len(g) > 0 {
			win[i] = g[results[bestB].vec[i]]
		}
	}
	a, err := tightPick(p, win, results[bestB].score, report)
	if err != nil {
		return nil, err
	}
	a.TightCombos, a.TightPruned = totCombos, totPruned
	return a, nil
}

// tightPick runs the pass the tight rung returns: on the search's winning
// θ-vector, or on the greedy rung's when that scores strictly lower, so the
// top rung never loses to the rung below it even when grid thinning drops the
// exact theta the greedy pass picked. Only that last pass carries the report:
// the comparison is a chain pass, so a greedy win under report runs the greedy
// vector twice — about one search in fifty, against a report pass saved on
// the other forty-nine (docs/PERFORMANCE.md, PR 15).
func tightPick(p Pipeline, win []float64, score float64, report bool) (*Analysis, error) {
	if greedy := tightGreedy(p); greedy != nil {
		if ga, err := analyzeWith(p, greedy, false); err == nil {
			if _, d := ga.chainDelay(); d < score*(1-1e-12) {
				if !report {
					return ga, nil
				}
				win = greedy
			}
		}
	}
	return analyzeWith(p, win, report)
}

// thinGrid keeps k evenly spaced entries of g including both endpoints.
func thinGrid(g []float64, k int) []float64 {
	if k < 2 {
		k = 2
	}
	if len(g) <= k {
		return g
	}
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, g[i*(len(g)-1)/(k-1)])
	}
	return out
}
