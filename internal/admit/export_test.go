package admit

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
