package admit

import (
	"fmt"

	"streamcalc/internal/core"
)

// RedecideCache re-decides, as a set of one, every verdict-cache entry that
// is valid at the current epoch and asks the question of one of flows. It
// returns each stored refusal beside the fresh answer, and the number of
// valid entries, so a caller can tell that flows covered them all. It takes
// the writer role, so no transaction runs in between.
func (c *Controller) RedecideCache(flows []Flow) (stored, fresh []Verdict, valid int) {
	c.leaderSem <- struct{}{}
	defer func() { <-c.leaderSem }()

	live := make(map[verdictKey]Verdict)
	c.cacheMu.Lock()
	for k, v := range c.cache {
		if v.Epoch == c.epoch.Load() {
			live[k] = v
		}
	}
	c.cacheMu.Unlock()

	for _, f := range flows {
		key := c.keyFor(f)
		v, ok := live[key]
		if !ok {
			continue
		}
		delete(live, key)
		f.ID = "" // the stored refusal is ID-independent
		cd := cand{f: f, key: key}
		stored = append(stored, v)
		fresh = append(fresh, c.analyse([]cand{cd}, nil).verdict(0, cd))
		valid++
	}
	return stored, fresh, valid + len(live)
}

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
	if b, err = core.Bound(p, nil); err != nil {
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
