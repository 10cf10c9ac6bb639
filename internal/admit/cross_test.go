package admit

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

// referenceCross is the keyed merge shard.cross ran per (victim, node) before
// the running sums replaced it, kept as the differential reference (it reads
// a term's key, bucket and count, never its sums): one walk over the shard's
// classes and d's added ones in keyLess order, self's count lowered by one,
// terms added left to right.
func referenceCross(sh *shard, self classKey, d *decision) core.Bucket {
	var adds []classKey
	if d != nil {
		adds = d.keys
	}
	own := sh.cross.terms
	var out core.Bucket
	i, j := 0, 0
	for i < len(own) || j < len(adds) {
		var k classKey
		var b core.Bucket
		n := 0
		takeShard := j >= len(adds) || (i < len(own) && !keyLess(adds[j], own[i].key))
		takeAdd := i >= len(own) || (j < len(adds) && !keyLess(own[i].key, adds[j]))
		if takeShard {
			k = own[i].key
			b, n = own[i].b, own[i].n
			i++
		}
		if takeAdd {
			k = adds[j]
			pl := d.plans[k]
			if ab, hosted := pl.contrib[sh.node.Name]; hosted {
				b = ab
				n += pl.n
			}
			j++
		}
		if k == self {
			n--
		}
		if n > 0 {
			out.Rate += b.Rate * units.Rate(n)
			out.Burst += b.Burst * units.Bytes(n)
		}
	}
	return out
}

// crossPopulation is a random registry footprint: up to four nodes, classes
// with random keys, rungs, paths over those nodes and member counts (about a
// third hold a single member), and reservations spread over twelve decades so
// that any change in summation order shows in the low bits.
type crossPopulation struct {
	shards  []*shard
	keys    []classKey // every class, admitted or only added
	contrib map[classKey]map[string]core.Bucket
}

func randomKey(rng *rand.Rand, path string) classKey {
	return classKey{
		alpha: rng.Uint64(),
		lmax:  units.Bytes(1500 * rng.Intn(3)),
		path:  path,
		slo:   SLO{MaxBacklog: units.Bytes(rng.Intn(4)) * units.MiB},
		rung:  []core.Rung{core.RungBlind, core.RungFIFO, core.RungTight}[rng.Intn(3)],
	}
}

func randomBucket(rng *rand.Rand) core.Bucket {
	return core.Bucket{
		Rate:  units.Rate(math.Exp(rng.Float64()*28 - 4)),
		Burst: units.Bytes(math.Exp(rng.Float64()*28 - 4)),
	}
}

func newCrossPopulation(rng *rand.Rand, classes int) *crossPopulation {
	p := &crossPopulation{contrib: make(map[classKey]map[string]core.Bucket)}
	for i := 0; i < 4; i++ {
		p.shards = append(p.shards, &shard{node: core.Node{Name: fmt.Sprintf("n%d", i)}})
	}
	for len(p.keys) < classes {
		p.admit(p.newClass(rng), 1+rng.Intn(3)*rng.Intn(40))
	}
	return p
}

// newClass draws a class over a random 1–4 node path and its per-node
// reservation, without admitting anybody.
func (p *crossPopulation) newClass(rng *rand.Rand) classKey {
	hops := rng.Perm(len(p.shards))[:1+rng.Intn(len(p.shards))]
	contrib := make(map[string]core.Bucket, len(hops))
	path := ""
	for _, h := range hops {
		contrib[p.shards[h].node.Name] = randomBucket(rng)
		path += p.shards[h].node.Name + "\x00"
	}
	k := randomKey(rng, path)
	p.contrib[k] = contrib
	p.keys = append(p.keys, k)
	return k
}

func (p *crossPopulation) admit(k classKey, members int) {
	for _, sh := range p.shards {
		if b, hosted := p.contrib[k][sh.node.Name]; hosted {
			sh.insert(k, b, members)
		}
	}
}

// churn releases members of some classes, all of them for a few, and admits
// more to others, so the shards' sums have been patched in place, not only
// built up front.
func (p *crossPopulation) churn(rng *rand.Rand) {
	for _, k := range p.keys {
		switch rng.Intn(4) {
		case 0:
			m := 1 + rng.Intn(3)*rng.Intn(40)
			for _, sh := range p.shards {
				sh.remove(k, m)
			}
		case 1:
			p.admit(k, 1+rng.Intn(5))
		}
	}
}

// additions builds a decision adding members to some admitted classes and to
// some classes nobody holds yet.
func (p *crossPopulation) additions(rng *rand.Rand) *decision {
	d := &decision{plans: make(map[classKey]*classPlan)}
	for _, k := range p.keys {
		if rng.Intn(4) == 0 {
			d.keys = append(d.keys, k)
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		d.keys = append(d.keys, p.newClass(rng))
	}
	for _, k := range d.keys {
		d.plans[k] = &classPlan{n: 1 + rng.Intn(3), contrib: p.contrib[k]}
	}
	sort.Slice(d.keys, func(i, j int) bool { return keyLess(d.keys[i], d.keys[j]) })
	return d
}

// TestCrossBitIdentical: the running sums return, for every node and every
// choice of self, the bit pattern the per-victim merge loop did — with and
// without additions, after releases, for self first, last and in between in
// keyLess order, absent from the node, absent altogether, the zero key, a
// class with one member, and a class that is also gaining members.
func TestCrossBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	same := func(got, want core.Bucket) bool {
		return math.Float64bits(float64(got.Rate)) == math.Float64bits(float64(want.Rate)) &&
			math.Float64bits(float64(got.Burst)) == math.Float64bits(float64(want.Burst))
	}
	for trial := 0; trial < 300; trial++ {
		p := newCrossPopulation(rng, 1+rng.Intn(80))
		p.churn(rng)
		for _, withAdds := range []bool{false, true} {
			d, ref := &decision{}, (*decision)(nil)
			if withAdds {
				d = p.additions(rng)
				ref = d
			}
			// Every class the population knows (hosted on a node or not, with
			// one member or many, gaining members or not), nobody, a stranger.
			selves := append([]classKey{{}, randomKey(rng, "n9\x00")}, p.keys...)
			for _, sh := range p.shards {
				if got, want := d.crossAt(sh).total, referenceCross(sh, classKey{}, ref); !same(got, want) {
					t.Fatalf("trial %d node %s adds=%t: total %v, reference %v", trial, sh.node.Name, withAdds, got, want)
				}
				for _, self := range selves {
					got, want := d.crossAt(sh).without(self), referenceCross(sh, self, ref)
					if !same(got, want) {
						t.Fatalf("trial %d node %s adds=%t self %+v: cross %v, reference %v",
							trial, sh.node.Name, withAdds, self, got, want)
					}
				}
			}
		}
	}
}

// TestCrossOrderMatters guards the test above: on these populations a sum in
// another order ("total minus self") does differ in the low bits, so bit
// identity is a real constraint, not a vacuous one.
func TestCrossOrderMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	differs := 0
	for trial := 0; trial < 50; trial++ {
		p := newCrossPopulation(rng, 40)
		for _, sh := range p.shards {
			nc := &sh.cross
			for _, term := range nc.terms {
				if nc.total.Rate-term.b.Rate != nc.without(term.key).Rate {
					differs++
				}
			}
		}
	}
	if differs == 0 {
		t.Fatal("total minus self never differed from the ordered sum: the populations do not exercise float summation order")
	}
}
