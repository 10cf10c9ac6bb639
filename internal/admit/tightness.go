package admit

import (
	"fmt"
	"time"

	"streamcalc/internal/units"
)

// Tightness compares the analytic bounds promised to one admitted flow
// against the behavior a deterministic replay of the flow actually observes.
// The replay plays the flow's offered envelope into the residual service its
// co-resident reservations leave (the worst case the admission analysis
// assumed), so the analytic bound must dominate every observation: a
// tightness ratio below 1 means the network-calculus promise was violated.
type Tightness struct {
	FlowID string
	// Rung is the analysis tightness rung the bounds were computed at (the
	// rung the flow was admitted with).
	Rung string
	// Epoch is the platform epoch the comparison was taken at. The analytic
	// bounds are recomputed at this epoch (under the co-resident reservations
	// of the moment), not copied from the possibly older admission verdict —
	// both sides of the comparison must see the same platform state.
	Epoch uint64

	// Delay: analytic HDev bound vs. the replayed sojourn distribution.
	DelayBound  time.Duration
	SimDelayP50 time.Duration
	SimDelayP99 time.Duration
	SimDelayMax time.Duration
	// DelayTightness = DelayBound / SimDelayMax (≥ 1 when the bound is
	// sound; close to 1 means the bound is tight).
	DelayTightness float64

	// Backlog: analytic VDev bound vs. the replayed peak in-flight bytes.
	BacklogBound     units.Bytes
	SimBacklogMax    units.Bytes
	BacklogTightness float64

	// Capped reports the replay hit its event cap and the observations are
	// partial (ratios are still published; treat them as lower-coverage).
	Capped bool
	// Events is the number of simulator events the replay executed.
	Events uint64
}

// Tightness replays admitted flow id through the discrete-event simulator at
// its residual service and reports the analytic bounds next to the observed
// p50/p99/max sojourn and peak backlog. Deterministic per ReplayOptions seed.
func (c *Controller) Tightness(id string, opt ReplayOptions) (Tightness, error) {
	if opt.Total <= 0 {
		opt.Total = 8 * units.MiB
	}
	c.mu.RLock()
	cs, ok := c.flows[id]
	var f Flow
	if ok {
		f = cs.flowFor(id)
	}
	c.mu.RUnlock()
	if !ok {
		return Tightness{}, fmt.Errorf("admit: tightness: flow %q not admitted", id)
	}
	// Current analytic bounds, from the same snapshot as the replay's
	// residual service: the flow under today's co-resident cross traffic.
	// The admission-time verdict may be looser or tighter — flows admitted
	// or released since then changed the residual service.
	sp, b, err := c.replaySim(f, opt)
	if err != nil {
		return Tightness{}, fmt.Errorf("admit: tightness: flow %q: %w", id, err)
	}
	res, err := sp.Run()
	if err != nil {
		return Tightness{}, fmt.Errorf("admit: tightness: flow %q: %w", id, err)
	}

	t := Tightness{
		FlowID: id,
		Rung:   b.Rung.String(),
		Epoch:  c.Epoch(),

		DelayBound:  b.Delay,
		SimDelayP50: res.DelayP50,
		SimDelayP99: res.DelayP99,
		SimDelayMax: res.DelayMax,

		BacklogBound:  b.Backlog,
		SimBacklogMax: res.MaxBacklog,

		Capped: res.Capped,
		Events: res.Events,
	}
	if res.DelayMax > 0 {
		t.DelayTightness = b.Delay.Seconds() / res.DelayMax.Seconds()
	}
	if res.MaxBacklog > 0 {
		t.BacklogTightness = float64(b.Backlog) / float64(res.MaxBacklog)
	}
	return t, nil
}
