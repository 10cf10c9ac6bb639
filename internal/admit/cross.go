package admit

import (
	"sort"

	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

// crossTerm is one class's share of a node's cross traffic.
type crossTerm struct {
	key    classKey
	b      core.Bucket // per-member reservation (local units)
	n      int         // members
	sum    core.Bucket // b × n
	before core.Bucket // the sums of the terms ahead of this one, added in order
}

// nodeCross is the cross traffic one node carries: a term per hosted class
// in global keyLess order, and their total. A shard keeps the one of its
// admitted classes current (shard.cross); a decision derives the one with
// its additions merged in (crossWith). The total and every without(self) are
// the same left-to-right float sum over that order (float addition is not
// associative, so there is no "total minus self"), which makes them
// deterministic functions of the population — independent of arrival order,
// of how the population was split into transactions, and of which class
// asks. The cost of a query is O(classes) adds at most, however many flows
// the node hosts.
type nodeCross struct {
	terms []crossTerm
	total core.Bucket
}

// find returns the position of class k's term, or where it would go.
func (nc *nodeCross) find(k classKey) (int, bool) {
	i := sort.Search(len(nc.terms), func(i int) bool { return !keyLess(nc.terms[i].key, k) })
	return i, i < len(nc.terms) && nc.terms[i].key == k
}

// resum recomputes the products and running sums from term i on, after the
// terms from i on changed: one multiply (bucket × count) and one add per
// class, continuing the sum the terms before i left.
func (nc *nodeCross) resum(i int) {
	var acc core.Bucket
	if i > 0 {
		prev := &nc.terms[i-1]
		acc = core.Bucket{Rate: prev.before.Rate + prev.sum.Rate, Burst: prev.before.Burst + prev.sum.Burst}
	}
	for ; i < len(nc.terms); i++ {
		t := &nc.terms[i]
		t.sum = core.Bucket{Rate: t.b.Rate * units.Rate(t.n), Burst: t.b.Burst * units.Bytes(t.n)}
		t.before = acc
		acc.Rate += t.sum.Rate
		acc.Burst += t.sum.Burst
	}
	nc.total = acc
}

// without returns the node's cross traffic minus one member of class self;
// the total when the node hosts no such class (the zero key never is one).
// It resumes the sum at self's term: what came before it, self's remaining
// members, then every later term in order — bit for bit the sum a walk over
// all terms with self's count lowered by one would produce.
func (nc *nodeCross) without(self classKey) core.Bucket {
	i, ok := nc.find(self)
	if !ok {
		return nc.total
	}
	t := &nc.terms[i]
	out := t.before
	if t.n > 1 {
		out.Rate += t.b.Rate * units.Rate(t.n-1)
		out.Burst += t.b.Burst * units.Bytes(t.n-1)
	}
	for j := i + 1; j < len(nc.terms); j++ {
		out.Rate += nc.terms[j].sum.Rate
		out.Burst += nc.terms[j].sum.Burst
	}
	return out
}

// crossWith returns the node's cross traffic with the members the classes
// adds gain (per plans) counted in: the shard's own when none of them visits
// the node, otherwise a sorted merge of the shard's terms and the added
// ones, summed afresh. The result is read-only. Callers must hold the
// registry lock in either mode.
func (sh *shard) crossWith(adds []classKey, plans map[classKey]*classPlan) *nodeCross {
	own := sh.cross.terms
	var nc *nodeCross
	i := 0
	for _, k := range adds {
		pl := plans[k]
		b, hosted := pl.contrib[sh.node.Name]
		if !hosted {
			continue
		}
		if nc == nil {
			nc = &nodeCross{terms: make([]crossTerm, 0, len(own)+len(adds))}
		}
		for i < len(own) && keyLess(own[i].key, k) {
			nc.terms = append(nc.terms, own[i])
			i++
		}
		t := crossTerm{key: k, b: b, n: pl.n}
		if i < len(own) && own[i].key == k {
			t.n += own[i].n // the class is admitted already, with the same bucket
			i++
		}
		nc.terms = append(nc.terms, t)
	}
	if nc == nil {
		return &sh.cross
	}
	nc.terms = append(nc.terms, own[i:]...)
	nc.resum(0)
	return nc
}
