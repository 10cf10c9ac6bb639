package admit

import (
	"context"
	"fmt"
	"time"

	"streamcalc/internal/obs"
	"streamcalc/internal/pool"
	"streamcalc/internal/units"
)

// RevalidateOptions tunes a batch revalidation pass.
type RevalidateOptions struct {
	// Replay configures each flow's simulation (input volume, seed),
	// exactly as in -validate trace replay.
	Replay ReplayOptions
	// Workers bounds the concurrent per-flow re-checks; < 1 means
	// GOMAXPROCS. The report is identical at every worker count.
	Workers int
	// Context cancels outstanding re-checks early (nil means Background).
	Context context.Context
	// Metrics, when non-nil, receives the revalidation pool telemetry
	// (pool label "revalidate").
	Metrics *obs.Registry
}

// FlowRevalidation is one admitted flow's re-check: the analytic bounds
// recomputed under the platform's current reservations, the simulated
// replay measurements, and any violations of bounds or SLO.
type FlowRevalidation struct {
	FlowID string
	// Rung is the analysis rung the bounds were computed at (the rung the
	// flow was admitted with).
	Rung string
	// Delay/Backlog/Throughput are the current analytic bounds for the flow
	// given today's co-resident reservations (not the possibly looser
	// bounds promised at admission time).
	Delay      time.Duration
	Backlog    units.Bytes
	Throughput units.Rate
	// Sim measurements from the residual-service replay: the sojourn
	// quantiles, peak in-flight bytes and finite-run throughput.
	SimDelayP50   time.Duration
	SimDelayP99   time.Duration
	SimDelayMax   time.Duration
	SimMaxBacklog units.Bytes
	SimThroughput units.Rate
	// Capped reports the replay hit its event cap: the measurements cover
	// only a prefix of the run.
	Capped bool
	// Violations lists broken bounds/SLO dimensions (empty when sound).
	Violations []string
}

// RevalidateReport summarizes a batch revalidation.
type RevalidateReport struct {
	// Epoch is the platform epoch the snapshot was taken at.
	Epoch uint64
	// Flows holds one re-check per admitted flow, sorted by flow ID.
	Flows []FlowRevalidation
	// Violations totals the violation entries across all flows.
	Violations int
}

// RevalidateAll re-checks every admitted flow against the platform's
// current state: each flow's end-to-end bounds are recomputed with its
// co-residents' reservations as cross traffic (the same victim analysis an
// admission probe runs), its replay simulation is re-run at the current
// residual service, and the measurements are asserted against both the
// recomputed bounds and the flow's SLO. The per-flow re-checks — the
// expensive part, one full DES replay each — fan out across a bounded
// worker pool; results are assembled in flow-ID order, so the report is
// deterministic for every worker count.
//
// Only the flow list is snapshotted, at Report.Epoch. Each flow's bounds
// and stages are read under their own read lock, at the registry state
// current when that flow's replay starts, so a commit or release during the
// pass shows in the flows re-checked after it. Controller.Epoch steps on
// every commit or release: while it still reads Report.Epoch, nothing has
// committed since the pass began and the report describes the registry
// exactly, so a caller may reuse it for as long as the epoch has not moved.
func (c *Controller) RevalidateAll(opt RevalidateOptions) (*RevalidateReport, error) {
	c.mu.RLock()
	epoch := c.epoch.Load()
	ids := c.sortedFlowIDs()
	flows := make([]Flow, len(ids))
	for i, id := range ids {
		flows[i] = c.flows[id].flowFor(id)
	}
	c.mu.RUnlock()

	rep := &RevalidateReport{Epoch: epoch, Flows: make([]FlowRevalidation, len(flows))}
	pm := pool.NewMetrics(opt.Metrics, "revalidate")
	err := pool.ForEach(opt.Context, opt.Workers, len(flows), pm, func(i int) error {
		fr, err := c.revalidateFlow(flows[i], opt.Replay)
		if err != nil {
			return fmt.Errorf("admit: revalidate %q: %w", flows[i].ID, err)
		}
		rep.Flows[i] = fr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rep.Flows {
		rep.Violations += len(rep.Flows[i].Violations)
	}
	return rep, nil
}

// revalidateFlow re-checks one admitted flow: fresh analytic bounds under
// the current co-resident cross traffic, then a residual-service replay
// checked against those bounds and the SLO.
func (c *Controller) revalidateFlow(f Flow, opt ReplayOptions) (FlowRevalidation, error) {
	sp, b, err := c.replaySim(f, opt)
	if err != nil {
		return FlowRevalidation{}, err
	}
	res, err := sp.Run()
	if err != nil {
		return FlowRevalidation{}, err
	}
	return FlowRevalidation{
		FlowID:     f.ID,
		Rung:       b.Rung.String(),
		Delay:      b.Delay,
		Backlog:    b.Backlog,
		Throughput: b.Throughput,

		SimDelayP50:   res.DelayP50,
		SimDelayP99:   res.DelayP99,
		SimDelayMax:   res.DelayMax,
		SimMaxBacklog: res.MaxBacklog,
		SimThroughput: res.Throughput,
		Capped:        res.Capped,

		Violations: boundViolations(b, f.SLO, res),
	}, nil
}
