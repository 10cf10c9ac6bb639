package admit

import (
	"fmt"
	"sort"
	"time"

	"streamcalc/internal/core"
)

// This file is the admission transaction. decideSet is the one function that
// analyses a candidate set; transact is the one function that locks and
// commits it. Admit and group commit (group.go) and AdmitBatch (batch.go)
// differ only in which candidates they hand to transact and in what they do
// with a set it refuses. All of them run under the writer role.

// cand is one flow offered for admission that has passed precheck.
type cand struct {
	f   Flow
	key classKey
	idx int // position in the caller's output (AdmitBatch)
}

// classPlan is one flow class a candidate set adds members to.
type classPlan struct {
	f       Flow                   // a member, for the class's arrival, path and SLO
	n       int                    // members the set adds
	contrib map[string]core.Bucket // per-member reservation (shared, read-only)
	err     error                  // the standalone analysis failed: members are spec rejections
	verdict Verdict                // admitted template (FlowID blank), set when the set fits
	theta   []float64              // the θ-vector the class's check committed to (tight rung only)
}

// decision is decideSet's answer for one candidate set at one registry
// snapshot.
type decision struct {
	epoch uint64
	plans map[classKey]*classPlan
	keys  []classKey // classes gaining members, in keyLess order
	// spec holds the candidates (by position) answered on their own — an ID
	// already admitted, a spec the pristine platform cannot carry. They are
	// not part of the set the rest of the decision is about.
	spec map[int]Verdict
	// ok reports that every SLO, of the added and of the admitted classes,
	// holds with all remaining candidates added. Otherwise refusal says
	// which one broke; it is the exact verdict for a set of one class and
	// only a reason to split for a larger set.
	ok      bool
	refusal Verdict
	// cross holds, per node the analysis read, the node's cross traffic at
	// the final state: merged once, on first use, and shared by every class
	// the decision checks there. Its keys are the nodes the flight recorder
	// reports.
	cross map[*shard]*nodeCross
}

// verdict returns the answer for candidate cd at position i of the set.
func (d *decision) verdict(i int, cd cand) Verdict {
	v, own := d.spec[i]
	switch {
	case own:
	case d.ok:
		v = d.plans[cd.key].verdict
	default:
		v = d.refusal
	}
	v.FlowID = cd.f.ID
	return v
}

// crossAt returns sh's cross traffic with d's additions merged in, building
// it on first use. The registry lock must be held in either mode.
func (d *decision) crossAt(sh *shard) *nodeCross {
	nc := d.cross[sh]
	if nc == nil {
		if d.cross == nil {
			d.cross = make(map[*shard]*nodeCross)
		}
		nc = sh.crossWith(d.keys, d.plans)
		d.cross[sh] = nc
	}
	return nc
}

// screenSlack is the relative margin by which the screen's core.ChainBound
// must clear every dimension of a victim's SLO for the victim to skip its
// analysis.
const screenSlack = 1e-6

// screened reports that admitted class cs provably keeps its SLO at d's final
// state, by arithmetic alone: core.ChainBound at blind over the class's path,
// every node carrying its whole aggregate (one member more than the
// without(self) an analysis subtracts — more cross traffic only worsens the
// blind chain, which every rung's dominates), bounds what core.Bound would
// return at any rung. False means "analyse it", never "it fails". The
// registry lock must be held in either mode.
func (d *decision) screened(c *Controller, cs *classState) bool {
	var onStack [8]core.Node // longer paths spill to the heap
	hops := onStack[:0]
	for _, name := range cs.path {
		sh := c.shards[name]
		n, agg := sh.node, d.crossAt(sh).total
		n.CrossRate += agg.Rate
		n.CrossBurst += agg.Burst
		hops = append(hops, n)
	}
	delay, backlog, throughput, ok := core.ChainBound(cs.arrival, hops, nil)
	const worse = 1 + screenSlack
	return ok &&
		(cs.slo.MaxDelay <= 0 || delay*worse <= cs.slo.MaxDelay.Seconds()) &&
		(cs.slo.MaxBacklog <= 0 || backlog*worse <= cs.slo.MaxBacklog) &&
		(cs.slo.MinThroughput <= 0 || throughput >= cs.slo.MinThroughput*worse)
}

// nodeNames returns the names of the nodes d's analysis read, sorted.
func (d *decision) nodeNames() []string {
	out := make([]string, 0, len(d.cross))
	for sh := range d.cross {
		out = append(out, sh.node.Name)
	}
	sort.Strings(out)
	return out
}

// decideSet checks cands as one set at the hypothetical final state, without
// mutating anything: first every class gaining members against its own SLO
// (yielding its admitted verdict template, or a refusal naming the binding
// constraint), then every admitted class sharing a node with the additions
// (yielding "victim:<id>"). Each class is analysed once — its members are
// interchangeable — at the rung it is or was admitted at, with one of its
// own members left out of the cross traffic; a victim the closed-form screen
// clears (decision.screened) is passed without an analysis, which changes no
// verdict because a victim's bounds are never reported. A single Admit is the
// set of one. The caller must hold the writer role and the registry lock, in
// either mode; precheck must have passed for every candidate. Nothing in a
// refusal mentions a candidate's ID: AdmitBatch hands it to every flow of the
// same class behind the boundary.
func (c *Controller) decideSet(cands []cand, tr *decTrace) *decision {
	d := &decision{
		epoch: c.epoch.Load(),
		plans: make(map[classKey]*classPlan),
	}
	own := func(i int, k classKey, format string, args ...any) {
		if d.spec == nil {
			d.spec = make(map[int]Verdict)
		}
		d.spec[i] = Verdict{Epoch: d.epoch, Rung: k.rung.String(), Binding: "spec",
			Reason: "rejected: " + fmt.Sprintf(format, args...)}
	}
	refuse := func(phase string, rung core.Rung, binding, format string, args ...any) *decision {
		d.refusal = Verdict{Epoch: d.epoch, Rung: rung.String(), Binding: binding,
			Reason: "rejected: " + fmt.Sprintf(format, args...)}
		tr.mark(phase)
		return d
	}

	// Roster: the classes gaining members, each with one reservation, and
	// the nodes the additions touch.
	nodes := make(map[string]struct{})
	for i, cd := range cands {
		if _, dup := c.flows[cd.f.ID]; dup {
			// Re-checked under the lock (precheck ran before it).
			own(i, cd.key, "flow %q is already admitted", cd.f.ID)
			continue
		}
		pl, ok := d.plans[cd.key]
		if !ok {
			pl = c.planClass(cd)
			d.plans[cd.key] = pl
			if pl.err == nil {
				d.keys = append(d.keys, cd.key)
				for _, name := range cd.f.Path {
					nodes[name] = struct{}{}
				}
			}
		}
		if pl.err != nil {
			own(i, cd.key, "%v", pl.err)
			continue
		}
		pl.n++
	}
	sort.Slice(d.keys, func(i, j int) bool { return keyLess(d.keys[i], d.keys[j]) })

	// check analyses one member of class self at the final state, at the
	// class's own rung whoever else is in the set: a tight-rung candidate
	// must not loosen (or tighten) the promises made to blind-rung classes.
	// A class gaining members (cs nil) runs the fresh search; an admitted
	// victim goes through classBound, which tries its stored θ-vector first.
	check := func(arrival core.Arrival, path []string, slo SLO, self classKey, cs *classState) (*core.Bounds, *sloCheck, error) {
		p := c.sharedPipeline(arrival, path, self.rung, self, d)
		b, certified, err := c.classBound(cs, p, false)
		if err != nil {
			// Saturation (aggregate cross >= node rate) surfaces as a
			// pipeline validation error.
			return nil, nil, err
		}
		if certified {
			c.noteCertified(tr)
			return b, nil, nil
		}
		return b, sloViolation(slo, p, b), nil
	}

	for _, k := range d.keys {
		pl := d.plans[k]
		b, bad, err := check(pl.f.Arrival, pl.f.Path, pl.f.SLO, k, nil)
		switch {
		case err != nil:
			return refuse(PhaseAnalysis, k.rung, "saturation", "%v", err)
		case bad != nil:
			return refuse(PhaseAnalysis, k.rung, bad.binding, "%s", bad.detail)
		}
		pl.verdict = c.admittedVerdict(d, k, pl, b)
		if k.rung == core.RungTight {
			pl.theta = b.FIFOTheta
		}
	}
	tr.mark(PhaseAnalysis)

	// Victims: admitted classes that share a node with the additions and
	// gain no member themselves (those were just checked above, with the
	// identical pipeline).
	for _, k := range c.classKeys {
		cs := c.classes[k]
		if _, gaining := d.plans[k]; gaining || !touches(cs.path, nodes) {
			continue
		}
		tr.noteVictim()
		if d.screened(c, cs) {
			c.noteScreened(tr)
			continue
		}
		_, bad, err := check(cs.arrival, cs.path, cs.slo, k, cs)
		// Only a refused set of one class is ever reported; its rung is that
		// class's.
		switch {
		case err != nil:
			return refuse(PhaseVictimSweep, d.keys[0].rung, "victim:"+cs.representative(),
				"admitting this flow would starve flow %q: %v", cs.representative(), err)
		case bad != nil:
			return refuse(PhaseVictimSweep, d.keys[0].rung, "victim:"+cs.representative(),
				"admitting this flow would break flow %q: %s", cs.representative(), bad.detail)
		}
	}
	tr.mark(PhaseVictimSweep)
	d.ok = true
	return d
}

// planClass resolves the reservation one member of cd's class holds: the
// admitted class's own when it exists, otherwise core.Reservations of the
// flow on the pristine platform (no co-resident reservations) at its rung, so
// the reservation is a deterministic function of (flow, platform) and the
// bookkeeping is associative and independent of admission order. A node the
// path visits twice holds the sum of both visits. An error there is a spec
// error (a starved platform node, an arrival no node can carry).
//
// Each reservation is the ultimate affine bound of the flow's *standalone*
// propagated output bound. It is exact at the path entry, but upstream
// contention makes a flow burstier than that: on ROADMAP's two-node probe
// (a flow of (1 MiB/s, 64 KiB) over n1 → n2 at 10 MiB/s and 1 ms each, n1
// also carrying (5 MiB/s, 4 MiB)), the flow reserves 66 585 B at n2 against
// 906 494 B propagated there at blind. The sim replay cannot see this: it
// serves a residual built from these same reservations. ROADMAP's
// delay-budget reservations item closes the hole.
func (c *Controller) planClass(cd cand) *classPlan {
	pl := &classPlan{f: cd.f}
	if cs, ok := c.classes[cd.key]; ok {
		pl.contrib = cs.contrib
		return pl
	}
	p := core.Pipeline{Arrival: cd.f.Arrival, Rung: cd.key.rung}
	for _, name := range cd.f.Path {
		p.Nodes = append(p.Nodes, c.shards[name].node)
	}
	res, err := core.Reservations(p)
	if err != nil {
		pl.err = err
		return pl
	}
	pl.contrib = make(map[string]core.Bucket, len(res))
	for i, b := range res {
		prev := pl.contrib[cd.f.Path[i]]
		pl.contrib[cd.f.Path[i]] = core.Bucket{Rate: prev.Rate + b.Rate, Burst: prev.Burst + b.Burst}
	}
	return pl
}

// admittedVerdict is the verdict template of a class whose members fit:
// promised bounds, bottleneck, and the residual headroom there with every
// addition counted.
func (c *Controller) admittedVerdict(d *decision, k classKey, pl *classPlan, b *core.Bounds) Verdict {
	slo := pl.f.SLO
	bn := pl.f.Path[b.BottleneckIndex]
	sh := c.shards[bn]
	headroom := sh.node.Rate - sh.node.CrossRate - d.crossAt(sh).total.Rate
	return Verdict{
		Admitted: true, Epoch: d.epoch, Rung: k.rung.String(),
		Delay: b.Delay, Backlog: b.Backlog, Throughput: b.Throughput,
		Bottleneck: bn, HeadroomRate: headroom,
		Reason: fmt.Sprintf(
			"admitted: delay %v <= %s, backlog %v <= %s, throughput %v >= %s; bottleneck %s, residual headroom %v",
			b.Delay, orAny(slo.MaxDelay > 0, slo.MaxDelay),
			b.Backlog, orAny(slo.MaxBacklog > 0, slo.MaxBacklog),
			b.Throughput, orAny(slo.MinThroughput > 0, slo.MinThroughput),
			bn, headroom),
	}
}

// touches reports whether path visits a node of the set.
func touches(path []string, nodes map[string]struct{}) bool {
	for _, name := range path {
		if _, hit := nodes[name]; hit {
			return true
		}
	}
	return false
}

// sharedPipeline builds the pipeline of one member of class self over the
// platform as it stands with d's additions committed (an empty decision adds
// none): at every path node the static background plus the node's cross
// traffic without that member. Every shared-state analysis — a decision,
// Recheck, revalidation, replay — is built here, so the pipeline
// a decision analysed is bit-identical to the one Recheck builds after the
// commit. The name is ID-independent (see planClass). The registry lock must
// be held in either mode.
func (c *Controller) sharedPipeline(arrival core.Arrival, path []string, rung core.Rung, self classKey, d *decision) core.Pipeline {
	p := core.Pipeline{Name: c.name + "/shared", Arrival: arrival, Rung: rung,
		Nodes: make([]core.Node, 0, len(path))}
	for _, name := range path {
		sh := c.shards[name]
		n := sh.node
		agg := d.crossAt(sh).without(self)
		n.CrossRate += agg.Rate
		n.CrossBurst += agg.Burst
		p.Nodes = append(p.Nodes, n)
	}
	return p
}

// transact decides cands as one atomic set and commits it when it fits. The
// caller holds the writer role (Controller.leaderSem), so nobody else can
// mutate the registry between the read-locked analysis and the write-locked
// commit: the state that commits is the state that was analysed, and nothing
// needs re-validating. The analysis takes only the read lock so that Recheck,
// Flows and revalidation overlap it.
func (c *Controller) transact(cands []cand, tr *decTrace) *decision {
	d := c.analyse(cands, tr)
	c.settle(cands, d, tr)
	return d
}

// analyse runs decideSet under the registry read lock, released by defer so
// a panic inside an analysis leaves the registry usable. The caller must hold
// the writer role.
func (c *Controller) analyse(cands []cand, tr *decTrace) *decision {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.decideSet(cands, tr)
}

// settle acts on d = analyse(cands); the caller must have held the writer
// role since before that analysis. A set that fits is committed; a refusal
// commits nothing.
func (c *Controller) settle(cands []cand, d *decision, tr *decTrace) {
	if d.ok {
		c.commitSet(cands, d)
	}
	tr.mark(PhaseValidateCommit)
	tr.setNodes(d)
}

// commitSet registers every candidate of d that was not answered on its own,
// in one write-locked section: the only place an admission takes the registry
// write lock.
func (c *Controller) commitSet(cands []cand, d *decision) {
	if len(d.spec) == len(cands) {
		return
	}
	waitStart := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cd := range cands {
		if _, own := d.spec[i]; !own {
			c.commit(cd.key, cd.f, d.plans[cd.key])
		}
	}
	// One transaction, one step of the global epoch, however many flows.
	c.epoch.Add(1)
	c.observeCommitWait(time.Since(waitStart))
}
