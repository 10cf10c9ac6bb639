package admit

import (
	"fmt"

	"streamcalc/internal/core"
)

// FreshBound bounds admitted flow id on the pipeline Recheck builds for it,
// by the fresh analysis alone (core.Bound, no stored θ-vector), and reports
// whether that bound meets the flow's SLO.
func (c *Controller) FreshBound(id string) (b *core.Bounds, meets bool, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cs, ok := c.flows[id]
	if !ok {
		return nil, false, fmt.Errorf("flow %q not admitted", id)
	}
	p := c.sharedPipeline(cs.arrival, cs.path, cs.key.rung, cs.key, &decision{})
	if b, err = core.Bound(p); err != nil {
		return nil, false, err
	}
	return b, sloViolation(cs.slo, p, b) == nil, nil
}

// VictimCheck runs on admitted flow id's class what a decision adding nothing
// runs on a victim: the screen, and when that does not clear the class,
// classBound as a victim check. It reports which of the two cleared it.
func (c *Controller) VictimCheck(id string) (screened, certified bool, err error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cs, ok := c.flows[id]
	if !ok {
		return false, false, fmt.Errorf("flow %q not admitted", id)
	}
	d := &decision{}
	if d.screened(c, cs) {
		return true, false, nil
	}
	p := c.sharedPipeline(cs.arrival, cs.path, cs.key.rung, cs.key, d)
	_, certified, err = c.classBound(cs, p, false)
	return false, certified, err
}

// admitTicket is an Admit ticket for f that skips precheck, the way the
// combiner's tests hand flows to processGroup and submit.
func (c *Controller) admitTicket(f Flow) *ticket {
	return &ticket{kind: tkAdmit, f: f, key: c.keyFor(f), done: make(chan ticketResult, 1)}
}
