package admit

// AdmitBatch decides a batch of candidate flows, returning one verdict per
// input in order. The whole batch goes to transact as one set: when it fits
// it commits under a single feasibility check of the final state — one
// analysis per flow *class* rather than per flow, and a single epoch step.
// When it does not, the controller commits the largest prefix analysis finds
// feasible, decides the first flow past it alone so its refusal names the
// binding constraint, and continues with the remainder; such a batch is a
// sequence of transactions, not one — an uninterrupted one: the call holds
// the writer role (see group.go) from its first analysis to its last commit,
// so no Admit, Release or other batch lands in between.
//
// Soundness never relies on bound monotonicity in cross traffic: every
// commit is an atomic set, so intermediate admission orders never exist —
// only explicitly verified states are ever committed. (Greediness does: the
// bisection finds the largest prefix that fits only where fitting is monotone
// in the prefix. The blind rung's bounds are isotone in cross traffic — core's
// TestScreenDominatesBound pins it — but the fifo and tight rungs choose
// their θ per state and promise no such thing, so there the committed prefix
// may be smaller than what sequential admission would have reached.) Relative
// order within the batch is preserved, so on a quiescent registry the sequence
// of committed states is a deterministic function of (registry state, batch).
//
// This is the bulk-ramp path for cmd/ncload: populating a million-flow
// registry through AdmitBatch costs O(batches × classes) analyses instead
// of O(flows × classes).
func (c *Controller) AdmitBatch(flows []Flow) []Verdict {
	tr := c.newTrace(KindBatch)
	out := make([]Verdict, len(flows))

	// Outside the registry lock: spec prechecks and intra-batch duplicates.
	rem := make([]cand, 0, len(flows))
	seen := make(map[string]struct{}, len(flows))
	epoch := c.epoch.Load()
	for i, f := range flows {
		v, key, bad := c.precheck(f, epoch)
		if bad {
			out[i] = v
			continue
		}
		if _, dup := seen[f.ID]; dup {
			out[i] = Verdict{FlowID: f.ID, Epoch: epoch, Binding: "spec",
				Reason: "rejected: duplicate flow ID within batch"}
			continue
		}
		seen[f.ID] = struct{}{}
		rem = append(rem, cand{f: f, key: key, idx: i})
	}
	tr.mark(PhasePrecheck)
	c.decideBatch(rem, out, tr)
	c.observeBatch(out, tr)
	return out
}

// decideBatch takes the writer role and decides rem, writing every
// candidate's verdict to its place in out.
func (c *Controller) decideBatch(rem []cand, out []Verdict, tr *decTrace) {
	c.leaderSem <- struct{}{}
	defer func() { <-c.leaderSem }()
	tr.mark(PhaseQueueWait)

	deliver := func(set []cand, d *decision) {
		for i, cd := range set {
			out[cd.idx] = d.verdict(i, cd)
		}
	}
	for len(rem) > 0 {
		d := c.transact(rem, tr)
		if d.ok {
			deliver(rem, d)
			break
		}
		if len(rem) > 1 {
			if lo, fits := c.feasiblePrefix(rem, tr); lo > 0 {
				c.settle(rem[:lo], fits, tr)
				deliver(rem[:lo], fits)
				rem = rem[lo:]
			}
			// The boundary flow alone: an exact refusal, or — where the
			// bounds are not monotone — an admission after all.
			d = c.transact(rem[:1], tr)
		}
		deliver(rem[:1], d)
		refused := rem[0].key
		rem = rem[1:]
		if d.ok {
			continue
		}
		// Same-class candidates further down take the boundary's refusal: the
		// registry has not moved since it was decided, and members of a class
		// are interchangeable, so it is the verdict a fresh decision would give.
		next := rem[:0]
		for _, cd := range rem {
			if cd.key == refused {
				v := d.refusal
				v.FlowID = cd.f.ID
				out[cd.idx] = v
				continue
			}
			next = append(next, cd)
		}
		rem = next
	}
}

// feasiblePrefix bisects cands, a set refused as a whole, for a large prefix
// that analysis finds feasible: lo is always verified (the empty prefix
// trivially), hi always refused. It returns lo with the decision that
// verified it, for the caller to settle.
func (c *Controller) feasiblePrefix(cands []cand, tr *decTrace) (lo int, fits *decision) {
	hi := len(cands)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if d := c.analyse(cands[:mid], tr); d.ok {
			lo, fits = mid, d
		} else {
			hi = mid
		}
	}
	return lo, fits
}

// observeBatch records one batch transaction on the attached telemetry
// sinks: per-verdict counters, a batch counter, a flight-recorder record,
// and a single audit line (per-flow audit at bulk-ramp rates would swamp
// the log).
func (c *Controller) observeBatch(out []Verdict, tr *decTrace) {
	if tr == nil {
		return
	}
	tr.mark(PhaseHandoff)
	took := tr.span.Total()
	admitted, rejected := 0, 0
	for i := range out {
		if out[i].Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	tr.batchN, tr.batchAdm = len(out), admitted

	rec := tr.record(took)
	rec.Admitted = admitted > 0
	seq := c.pushRecord(rec)

	if m := c.obsm; m != nil {
		m.admitted.Add(uint64(admitted))
		m.rejected.Add(uint64(rejected))
		m.reg.Counter("nc_admit_batches_total", "batch admission transactions").Inc()
		m.observeDecisionLatency(took, seq, "")
	}
	if c.audit != nil {
		c.audit.Info("admit.batch",
			"flows", len(out),
			"admitted", admitted,
			"rejected", rejected,
			"decision_us", took.Microseconds(),
			"victims_screened", rec.VictimsScreened,
			"victims_certified", rec.VictimsCertified,
		)
	}
}
