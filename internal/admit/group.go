package admit

import (
	"fmt"
	"runtime/debug"
)

// This file is the group-commit combiner, and the writer role it shares with
// AdmitBatch. Whoever holds Controller.leaderSem is the only goroutine that
// may mutate the registry: every commit and every release happens under it,
// so commit order is a legal serial history of the registry. Concurrent
// Admit/Release callers enqueue tickets; one caller at a time takes the role
// as the leader, drains the queue, commits the pending releases first, and
// hands the queued admissions to transact as one set. AdmitBatch (batch.go)
// takes the role directly, for all of its transactions, without a ticket.
//
// A set costs one analysis per class and one victim sweep, so k concurrent
// clients amortize the sweep k ways — the throughput lever a read-locked
// analysis alone cannot provide when the analysis itself is the CPU cost. A
// set that does not fit as a whole is decided one ticket at a time, in
// arrival order, by the same transact.

const (
	tkAdmit = iota
	tkRelease
)

// ticket is one queued Admit or Release awaiting the combiner. tr (nil when
// uninstrumented) is written by the submitter before enqueue, by the leader
// while the ticket is being decided, and by the submitter again after the
// done receive — each handoff channel- or mutex-synchronized.
type ticket struct {
	kind int
	f    Flow     // tkAdmit
	key  classKey // tkAdmit
	id   string   // tkRelease
	tr   *decTrace
	done chan ticketResult // buffered: the leader never blocks on an answer

	answered bool // leader-owned: the result has been sent
}

type ticketResult struct {
	v  Verdict // tkAdmit
	ok bool    // tkRelease
}

func (t *ticket) answer(r ticketResult) {
	t.answered = true
	t.done <- r
}

// submit enqueues t and waits for its result, volunteering as the combiner
// leader whenever leadership is free. An uncontended caller becomes the
// leader immediately and decides its own ticket; under contention, waiting
// callers' tickets accumulate and the next leader decides them as a group.
func (c *Controller) submit(t *ticket) ticketResult {
	t.done = make(chan ticketResult, 1)
	c.qmu.Lock()
	c.queue = append(c.queue, t)
	c.qmu.Unlock()
	for {
		select {
		case r := <-t.done:
			return r
		default:
		}
		select {
		case r := <-t.done:
			return r
		case c.leaderSem <- struct{}{}:
			c.lead()
		}
	}
}

// lead drains the queue until it is empty, then gives leadership up — also
// when a group panics past processGroup's recovery.
func (c *Controller) lead() {
	defer func() { <-c.leaderSem }()
	for {
		c.qmu.Lock()
		q := c.queue
		c.queue = nil
		c.qmu.Unlock()
		if len(q) == 0 {
			return
		}
		c.processGroup(q)
	}
}

// processGroup decides one drained batch of tickets: releases first (so
// admissions see the freshest state and releases never conflict with a
// sweep in flight), then the admissions. The callers behind the tickets are
// parked on their done channels, so a panic in an analysis must not unwind
// past here: every ticket still unanswered gets an "internal" rejection
// (a panicking analysis commits nothing) and the leader carries on.
func (c *Controller) processGroup(q []*ticket) {
	defer func() {
		if r := recover(); r != nil {
			c.noteInternalError(r, debug.Stack())
			for _, t := range q {
				if !t.answered {
					t.answer(ticketResult{v: Verdict{FlowID: t.f.ID, Epoch: c.epoch.Load(), Binding: "internal",
						Reason: fmt.Sprintf("rejected: internal error, nothing committed: %v", r)}})
				}
			}
		}
	}()
	var rel, adm []*ticket
	for _, t := range q {
		// The leader owns every drained ticket's trace from here until the
		// answer; everything since the submitter's last mark is combiner
		// queue wait.
		t.tr.mark(PhaseQueueWait)
		if t.kind == tkRelease {
			rel = append(rel, t)
		} else {
			adm = append(adm, t)
		}
	}
	if len(rel) > 0 {
		c.releaseAll(rel)
		// Admissions waited for the release drain; charge them that window.
		for _, t := range adm {
			t.tr.mark(PhaseDrain)
		}
	}
	if len(adm) == 0 {
		return
	}
	if m := c.obsm; m != nil {
		m.groupSize.Observe(float64(len(adm)))
	}

	// Tickets repeating an ID of the group wait for the first one's outcome.
	seen := make(map[string]struct{}, len(adm))
	var set, repeats []*ticket
	for _, t := range adm {
		t.tr.noteGroup(len(adm))
		if _, dup := seen[t.f.ID]; dup {
			repeats = append(repeats, t)
			continue
		}
		seen[t.f.ID] = struct{}{}
		set = append(set, t)
	}
	if !c.admitSet(set) {
		// Someone in the group does not fit at the final state: decide every
		// ticket alone, in order, so refusals carry exact per-flow verdicts
		// and the admissible members still get in.
		repeats = append(set, repeats...)
	}
	for _, t := range repeats {
		c.admitSet([]*ticket{t})
	}
}

// releaseAll commits the queued releases in one write-locked section. The
// caller holds the writer role.
func (c *Controller) releaseAll(rel []*ticket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range rel {
		ok := c.releaseLocked(t.id)
		t.tr.mark(PhaseValidateCommit)
		t.answer(ticketResult{ok: ok})
	}
}

// admitSet runs ts through transact as one set and answers them — unless
// there are several and the set was refused, which it reports as false
// without answering anyone. The leader's work on a group is shared by every
// ticket, so it is recorded on one trace and folded into each ticket's own;
// a lone ticket's trace takes the marks directly.
func (c *Controller) admitSet(ts []*ticket) bool {
	cands := make([]cand, len(ts))
	for i, t := range ts {
		cands[i] = cand{f: t.f, key: t.key}
	}
	tr := ts[0].tr
	if len(ts) > 1 {
		tr = c.newTrace(KindAdmit)
	}
	d := c.transact(cands, tr)
	if len(ts) > 1 {
		for _, t := range ts {
			t.tr.absorb(tr)
		}
		if !d.ok {
			return false
		}
	}
	for i, t := range ts {
		t.answer(ticketResult{v: d.verdict(i, cands[i])})
	}
	return true
}
