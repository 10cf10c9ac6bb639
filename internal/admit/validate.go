package admit

import (
	"fmt"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/sim"
	"streamcalc/internal/units"
)

// TraceOp is one step of an admitted-flow trace: an admission attempt or a
// release.
type TraceOp struct {
	Op   string // "admit" or "release"
	Flow Flow   // admission candidate (Op == "admit")
	ID   string // flow to release (Op == "release")
}

// ReplayOptions tunes the validation replay.
type ReplayOptions struct {
	// Total is the input volume each admitted flow is simulated with
	// (default 8 MiB).
	Total units.Bytes
	// Seed seeds the simulator (replays are deterministic per seed).
	Seed uint64
}

// throughputSlack is the relative tolerance when checking the measured
// finite-run throughput against the promised sustained bound (drain tails
// bias short runs low).
const throughputSlack = 0.05

// StepReport records one replayed trace operation and, for committed
// admissions, the simulated measurements against the promised bounds.
type StepReport struct {
	Index   int
	Op      string
	FlowID  string
	Verdict Verdict

	// Revalidation is the admitted flow's re-check, as RevalidateAll runs
	// it, taken right after the commit (nil unless the step admitted a
	// flow). Its recomputed bounds equal the Verdict's: the decision
	// analysed the same pipeline.
	Revalidation *FlowRevalidation

	// Violations lists promised bounds the simulation broke (empty when
	// the controller's promises held).
	Violations []string
}

// ReplayReport summarizes a trace replay.
type ReplayReport struct {
	Steps []StepReport
	// Admitted and Rejected count admission verdicts; Violations counts
	// simulated SLO violations across all steps (0 means every promise
	// held).
	Admitted, Rejected, Violations int
}

// Replay drives the controller through a trace of admit/release operations
// and validates every admission the controller grants by simulating the
// flow over its path at the residual service the co-resident reservations
// leave, asserting the promised delay, backlog, and throughput bounds hold
// (the per-flow re-check RevalidateAll runs).
func Replay(c *Controller, ops []TraceOp, opt ReplayOptions) (*ReplayReport, error) {
	rep := &ReplayReport{}
	for i, op := range ops {
		step := StepReport{Index: i, Op: op.Op}
		switch op.Op {
		case "admit":
			step.FlowID = op.Flow.ID
			v := c.Admit(op.Flow)
			step.Verdict = v
			if !v.Admitted {
				rep.Rejected++
				break
			}
			rep.Admitted++
			fr, err := c.revalidateFlow(op.Flow, opt)
			if err != nil {
				return nil, fmt.Errorf("admit: replay step %d (%s): %w", i, op.Flow.ID, err)
			}
			step.Revalidation = &fr
			step.Violations = fr.Violations
		case "release":
			step.FlowID = op.ID
			if !c.Release(op.ID) {
				step.Violations = append(step.Violations,
					fmt.Sprintf("release of unknown flow %q", op.ID))
			}
		default:
			return nil, fmt.Errorf("admit: replay step %d: unknown op %q", i, op.Op)
		}
		rep.Violations += len(step.Violations)
		rep.Steps = append(rep.Steps, step)
	}
	return rep, nil
}

// boundViolations checks one replay's measurements against the promised
// bounds and the flow's SLO, returning the violated dimensions.
func boundViolations(b *core.Bounds, s SLO, res *sim.Result) []string {
	var out []string
	if res.DelayMax > b.Delay+time.Microsecond {
		out = append(out, fmt.Sprintf(
			"simulated delay %v exceeds promised bound %v", res.DelayMax, b.Delay))
	}
	if float64(res.MaxBacklog) > float64(b.Backlog)+1 {
		out = append(out, fmt.Sprintf(
			"simulated backlog %v exceeds promised bound %v", res.MaxBacklog, b.Backlog))
	}
	if float64(res.Throughput) < float64(b.Throughput)*(1-throughputSlack) {
		out = append(out, fmt.Sprintf(
			"simulated throughput %v below promised bound %v", res.Throughput, b.Throughput))
	}
	if s.MaxDelay > 0 && res.DelayMax > s.MaxDelay {
		out = append(out, fmt.Sprintf(
			"simulated delay %v exceeds SLO max_delay %v", res.DelayMax, s.MaxDelay))
	}
	if s.MaxBacklog > 0 && float64(res.MaxBacklog) > float64(s.MaxBacklog)+1 {
		out = append(out, fmt.Sprintf(
			"simulated backlog %v exceeds SLO max_backlog %v", res.MaxBacklog, s.MaxBacklog))
	}
	if s.MinThroughput > 0 && float64(res.Throughput) < float64(s.MinThroughput)*(1-throughputSlack) {
		out = append(out, fmt.Sprintf(
			"simulated throughput %v below SLO min_throughput %v", res.Throughput, s.MinThroughput))
	}
	return out
}

// replaySim builds the replay simulation for admitted flow f: its offered
// envelope played into the residual service its co-residents leave (see
// residualStages), next to the bounds of f at the same registry snapshot —
// the bounds the replay is to be held against. A zero opt.Total replays
// 8 MiB.
func (c *Controller) replaySim(f Flow, opt ReplayOptions) (*sim.Pipeline, *core.Bounds, error) {
	if opt.Total <= 0 {
		opt.Total = 8 * units.MiB
	}
	stages, packet, b, err := c.residualStages(f)
	if err != nil {
		return nil, nil, err
	}
	if f.Arrival.MaxPacket > 0 {
		packet = f.Arrival.MaxPacket
	}
	src := sim.SourceConfig{
		Rate:       f.Arrival.Rate,
		PacketSize: packet,
		Burst:      f.Arrival.Burst,
		TotalInput: opt.Total,
	}
	if len(f.Arrival.Extra) > 0 {
		src.Envelope = append(src.Envelope, sim.EnvelopeBucket{
			Rate: f.Arrival.Rate, Burst: f.Arrival.Burst + f.Arrival.MaxPacket,
		})
		for _, b := range f.Arrival.Extra {
			src.Envelope = append(src.Envelope, sim.EnvelopeBucket{Rate: b.Rate, Burst: b.Burst})
		}
	}
	sp := sim.New(src, opt.Seed)
	for _, cfg := range stages {
		sp.Add(cfg)
	}
	return sp, b, nil
}

// residualStages builds the simulator stages for f's path: each node serves
// deterministically at the sustained rate of the residual service the flow's
// analysis rung assumed under the co-resident reservations (excluding f's
// own), with a one-time startup latency, both from core.ResidualAt at the
// node's θ. At the blind rung the residual is the rate-latency curve
// [beta - cross]⁺, replayed exactly; at the FIFO rungs the chosen
// theta-shifted member is not expressible as a (rate, startup) stage, so the
// stage serves its least rate-latency majorant — at least the service the
// analysis assumed everywhere, so the analytic bounds must still dominate
// every replay observation. It also returns the first node's job size as the
// default source packet, and the bounds whose thetas the stages were derived
// from.
func (c *Controller) residualStages(f Flow) ([]sim.StageConfig, units.Bytes, *core.Bounds, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// The per-node cross traffic and thetas the flow's analysis committed
	// to. Analysis errors (saturation) surface as replay errors.
	p, b, err := c.boundLocked(f)
	if err != nil {
		return nil, 0, nil, err
	}
	var out []sim.StageConfig
	for i, node := range p.Nodes {
		// Theta is a time quantity, so the input-referred value from the
		// analysis carries over to the node-local service unchanged (zero at
		// the blind rung).
		rate, latency, ok := core.ResidualAt(node, b.FIFOTheta[i])
		if !ok {
			return nil, 0, nil, fmt.Errorf("node %s: reservations starve the node", node.Name)
		}
		cfg := sim.StageFromRate(node.Name, rate, rate, node.JobIn, node.JobOut)
		cfg.Startup = time.Duration(latency * float64(time.Second))
		out = append(out, cfg)
	}
	return out, p.Nodes[0].JobIn, b, nil
}
