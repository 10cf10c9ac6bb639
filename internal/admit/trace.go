package admit

import (
	"time"

	"streamcalc/internal/obs"
)

// This file is the decision flight recorder: every Admit/Release/AdmitBatch
// call carries a decTrace through the combiner and the admission
// transaction, recording a contiguous phase breakdown (queue wait, leader
// drain, analysis, victim sweep, commit) plus the outcome metadata a
// postmortem needs — verdict, victim counts, and the nodes the analysis
// read. Finished decisions land in a ring buffer exposed by ncadmitd as
// GET /debug/decisions (JSON) and /debug/decisions/trace (Chrome
// trace_event), and each one stamps its sequence number onto the latency
// histogram as an exemplar, so a p99 bucket on /metrics links to the
// concrete decision that landed there.
//
// Ownership rule: a decTrace is written by exactly one goroutine at a time
// — the submitter before enqueue and after the done-channel receive, the
// combiner leader in between. Both handoffs are channel/mutex synchronized,
// so no span access races (the -race combiner test exercises this).

// Phase names recorded on decision spans.
const (
	PhasePrecheck       = "precheck"        // spec checks + class key
	PhaseQueueWait      = "queue_wait"      // combiner queue, waiting for a leader; a batch, for the writer role
	PhaseDrain          = "drain"           // leader committing queued releases first
	PhaseAnalysis       = "analysis"        // reservations + analysis of the classes gaining members
	PhaseVictimSweep    = "victim_sweep"    // re-checking co-resident classes
	PhaseValidateCommit = "validate_commit" // the write-locked commit (nothing is left to validate; bench/ reads the name)
	PhaseHandoff        = "handoff"         // result delivery back to the caller
)

// Decision kinds.
const (
	KindAdmit   = "admit"
	KindRelease = "release"
	KindBatch   = "batch"
)

// decTrace accumulates one decision's phase span and outcome metadata while
// the decision is in flight. All methods are nil-receiver safe so
// uninstrumented controllers pass nil and pay one branch per call site.
type decTrace struct {
	span      *obs.Span
	kind      string
	group     int // combiner group size this decision rode in (0 = none)
	victims   int // victim classes considered
	screened  int // of those, cleared by the closed-form screen without an analysis
	certified int // of the rest, cleared by their stored θ-vector without a search
	nodes     []string
	batchN    int // batch decisions: flows offered
	batchAdm  int // batch decisions: flows admitted
}

// newTrace starts a decision trace, or returns nil when no sink is
// attached (the uninstrumented fast path allocates nothing).
func (c *Controller) newTrace(kind string) *decTrace {
	if !c.instrumented() {
		return nil
	}
	return &decTrace{span: obs.StartSpan(), kind: kind}
}

func (tr *decTrace) mark(phase string) {
	if tr != nil {
		tr.span.Mark(phase)
	}
}

func (tr *decTrace) noteVictim() {
	if tr != nil {
		tr.victims++
	}
}

// noteScreened counts one victim the closed-form screen cleared, on the
// decision and on nc_admit_victims_screened_total. tr is non-nil whenever a
// sink is attached.
func (c *Controller) noteScreened(tr *decTrace) {
	if tr == nil {
		return
	}
	tr.screened++
	if m := c.obsm; m != nil {
		m.screened.Inc()
	}
}

// noteCertified counts one victim its stored θ-vector cleared, on the
// decision and on nc_admit_victims_certified_total. tr is non-nil whenever a
// sink is attached.
func (c *Controller) noteCertified(tr *decTrace) {
	if tr == nil {
		return
	}
	tr.certified++
	if m := c.obsm; m != nil {
		m.certified.Inc()
	}
}

func (tr *decTrace) noteGroup(n int) {
	if tr != nil {
		tr.group = n
	}
}

// absorb folds the leader's shared trace of one transaction (span phases,
// counters, nodes read) into this ticket's trace. Called by the
// leader before the done-channel handoff.
func (tr *decTrace) absorb(g *decTrace) {
	if tr == nil || g == nil {
		return
	}
	tr.span.Absorb(g.span)
	tr.victims += g.victims
	tr.screened += g.screened
	tr.certified += g.certified
	if g.nodes != nil {
		tr.nodes = g.nodes
	}
}

// setNodes records the nodes d's analysis read.
func (tr *decTrace) setNodes(d *decision) {
	if tr != nil && len(d.cross) > 0 {
		tr.nodes = d.nodeNames()
	}
}

// DecisionRecord is one finished decision in the flight recorder, fully
// detached from controller state and JSON-serializable.
type DecisionRecord struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"` // "admit", "release", "batch"

	FlowID   string `json:"flow_id,omitempty"`
	Admitted bool   `json:"admitted"`
	Released bool   `json:"released,omitempty"` // release decisions
	Binding  string `json:"binding,omitempty"`
	Rung     string `json:"rung,omitempty"` // analysis tightness rung decided at
	Epoch    uint64 `json:"epoch,omitempty"`

	Start  time.Time      `json:"start"`
	Total  time.Duration  `json:"total_ns"`
	Phases []obs.PhaseDur `json:"phases,omitempty"`

	GroupSize int `json:"group_size,omitempty"`

	// VictimsChecked counts the admitted classes the decision considered as
	// victims; VictimsScreened, how many of them the closed-form screen
	// cleared without an analysis; VictimsCertified, how many of the rest a
	// chain pass at their stored θ-vector cleared (fifo and tight rungs). The
	// remainder ran core.Bound.
	VictimsChecked   int `json:"victims_checked,omitempty"`
	VictimsScreened  int `json:"victims_screened,omitempty"`
	VictimsCertified int `json:"victims_certified,omitempty"`
	// Nodes names the nodes the decision's analysis read, sorted.
	Nodes []string `json:"nodes,omitempty"`

	BatchFlows    int `json:"batch_flows,omitempty"`
	BatchAdmitted int `json:"batch_admitted,omitempty"`
}

// record materializes the finished trace into a detached DecisionRecord
// (Seq is assigned by the recorder at push time). The caller must have
// marked the final phase already, so Total covers every recorded phase.
func (tr *decTrace) record(total time.Duration) DecisionRecord {
	return DecisionRecord{
		Kind:             tr.kind,
		Start:            tr.span.Start(),
		Total:            total,
		Phases:           tr.span.Phases(),
		GroupSize:        tr.group,
		VictimsChecked:   tr.victims,
		VictimsScreened:  tr.screened,
		VictimsCertified: tr.certified,
		Nodes:            tr.nodes,
		BatchFlows:       tr.batchN,
		BatchAdmitted:    tr.batchAdm,
	}
}

// --- Flight recorder --------------------------------------------------------

// FlightRecorder retains the last N finished decisions in a ring buffer.
// Push cost is one short mutex plus a struct copy, cheap relative to any
// decision; snapshots copy out under the same mutex.
type FlightRecorder struct {
	ring *obs.Ring[DecisionRecord]
}

// EnableFlightRecorder attaches a flight recorder keeping the last depth
// decisions and returns it. Call once, before serving traffic; enabling the
// recorder alone (without EnableObs) also turns on decision tracing.
func (c *Controller) EnableFlightRecorder(depth int) *FlightRecorder {
	r := &FlightRecorder{ring: obs.NewRing[DecisionRecord](depth)}
	c.rec = r
	return r
}

// Recorder returns the attached flight recorder (nil when disabled).
func (c *Controller) Recorder() *FlightRecorder { return c.rec }

// push stores a finished record, assigning and returning its sequence
// number (0 when no recorder is attached).
func (c *Controller) pushRecord(rec DecisionRecord) uint64 {
	if c.rec == nil {
		return 0
	}
	return c.rec.ring.PushSeq(func(seq uint64) DecisionRecord {
		rec.Seq = seq
		return rec
	})
}

// Depth returns the number of retained decisions.
func (r *FlightRecorder) Depth() int { return r.ring.Len() }

// Cap returns the recorder capacity.
func (r *FlightRecorder) Cap() int { return r.ring.Cap() }

// Seq returns the sequence number of the most recent decision (0 when
// empty).
func (r *FlightRecorder) Seq() uint64 { return r.ring.Seq() }

// Snapshot returns up to limit decisions, newest first (limit <= 0 means
// all retained).
func (r *FlightRecorder) Snapshot(limit int) []DecisionRecord {
	return r.ring.Snapshot(limit)
}

// Trace exports up to limit retained decisions as a Chrome trace_event
// timeline: one viewer thread per decision (named by kind, seq, and flow
// ID), its phases laid out contiguously as complete events, timestamps
// relative to the oldest exported decision.
func (r *FlightRecorder) Trace(limit int) *obs.Trace {
	recs := r.ring.Snapshot(limit)
	t := obs.NewTrace()
	if len(recs) == 0 {
		return t
	}
	base := recs[0].Start
	for _, rec := range recs {
		if rec.Start.Before(base) {
			base = rec.Start
		}
	}
	for _, rec := range recs {
		tid := int64(rec.Seq)
		name := rec.Kind + " #" + itoa(rec.Seq)
		if rec.FlowID != "" {
			name += " " + rec.FlowID
		}
		t.ThreadName(tid, name)
		at := rec.Start.Sub(base).Seconds()
		for _, p := range rec.Phases {
			d := p.Dur.Seconds()
			if d < 0 {
				d = 0
			}
			t.Complete(p.Phase, "phase", tid, at, d, nil)
			at += d
		}
		t.Complete("decision", "decision", tid, rec.Start.Sub(base).Seconds(),
			rec.Total.Seconds(), map[string]any{
				"kind":     rec.Kind,
				"flow_id":  rec.FlowID,
				"admitted": rec.Admitted,
				"binding":  rec.Binding,
				"group":    rec.GroupSize,
				"victims":  rec.VictimsChecked,
			})
	}
	return t
}

// itoa avoids strconv for the one uint64 the trace namer needs.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
