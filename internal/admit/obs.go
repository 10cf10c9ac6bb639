package admit

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/obs"
)

// DecisionBuckets are the histogram bounds for admission-decision latency
// (seconds): 1µs (cached rejections) up to ~1s (deep victim re-checks).
var DecisionBuckets = obs.ExponentialBuckets(1e-6, 4, 11)

// AnalysisBuckets are the histogram bounds for pipeline analyses (seconds).
var AnalysisBuckets = obs.ExponentialBuckets(1e-7, 4, 12)

// GroupSizeBuckets are the histogram bounds for combiner group sizes
// (tickets decided per group commit).
var GroupSizeBuckets = obs.ExponentialBuckets(1, 2, 8)

// ObsOptions tunes EnableObsOpts. The zero value is the recommended
// production default.
type ObsOptions struct {
	// PerNodeMetrics opts into the per-node gauge families
	// (nc_node_utilization, nc_node_flows, ...): one series per platform node
	// per family, unbounded cardinality at 10k+ nodes. Off by default.
	PerNodeMetrics bool
	// SLOObjective is the decision-latency objective: decisions at or under
	// it count as "fast" for the SLO instruments. Default 100ms.
	SLOObjective time.Duration
	// SLOBudget is the tolerated slow fraction (error budget) the burn-rate
	// gauge normalizes against: burn = slow_fraction / budget, so burn > 1
	// means the budget is being spent faster than allowed. Default 0.01.
	SLOBudget float64
	// WindowSeconds sizes the sliding window behind the burn-rate gauge and
	// the decisions-per-second figure. Default 60.
	WindowSeconds int
}

// ctrlObs bundles the controller's metric handles.
type ctrlObs struct {
	reg        *obs.Registry
	opts       ObsOptions
	admitted   *obs.Counter
	rejected   *obs.Counter
	cached     *obs.Counter
	releases   *obs.Counter
	decision   *obs.Histogram
	commitWait *obs.Histogram
	groupSize  *obs.Histogram
	sloFast    *obs.Counter
	internal   *obs.Counter
	screened   *obs.Counter
	certified  *obs.Counter
	rungCombos *obs.Counter

	// Sliding windows: every decision, and the slow (objective-violating)
	// ones, for the burn-rate gauge and /healthz decisions-per-second.
	decWin  *obs.Window
	slowWin *obs.Window

	// st is the per-scrape Stats snapshot: the collector refreshes it once
	// per render, and the CounterFunc/GaugeFunc closures read it — so one
	// scrape sees one consistent snapshot and cache counters can be typed
	// as counters without re-snapshotting per family.
	stMu sync.Mutex
	st   Stats
}

func (m *ctrlObs) snapshot() Stats {
	m.stMu.Lock()
	defer m.stMu.Unlock()
	return m.st
}

// EnableObs wires the controller onto reg with default options — see
// EnableObsOpts. Call once, before serving traffic.
func (c *Controller) EnableObs(reg *obs.Registry) {
	c.EnableObsOpts(reg, ObsOptions{})
}

// EnableObsOpts wires the controller onto reg:
//
//   - verdict counters (nc_admit_verdicts_total by result, nc_admit_cached_total,
//     nc_admit_releases_total) and a decision-latency histogram whose buckets
//     carry exemplars pointing at flight-recorder sequence numbers;
//   - SLO instruments against opts.SLOObjective: nc_admit_slo_fast_total,
//     nc_admit_slo_objective_seconds, and the windowed burn-rate gauge
//     nc_admit_slo_budget_burn;
//   - scrape-time gauges for admitted flows, platform epoch, and both cache
//     layers' hits/misses/entries (verdict cache, analysis memo); per-node
//     reservation gauges only with opts.PerNodeMetrics (unbounded cardinality
//     on large platforms);
//   - process-wide operator counts and analysis timing: curve.SetOpCounter
//     feeds the nc_curve_ops_total{op=...} counters, so a curve operator
//     call pays one counter increment, and core.SetAnalysisTimer feeds the
//     nc_analysis_seconds histogram, two clock reads and an Observe per
//     chain pass; both are resolved here, once (global hooks — the daemon
//     runs one controller; a second EnableObs call rebinds them).
//
// Call once, before serving traffic.
func (c *Controller) EnableObsOpts(reg *obs.Registry, opts ObsOptions) {
	if opts.SLOObjective <= 0 {
		opts.SLOObjective = 100 * time.Millisecond
	}
	if opts.SLOBudget <= 0 {
		opts.SLOBudget = 0.01
	}
	if opts.WindowSeconds <= 0 {
		opts.WindowSeconds = 60
	}
	m := &ctrlObs{
		reg:      reg,
		opts:     opts,
		admitted: reg.Counter("nc_admit_verdicts_total", "admission decisions by result", obs.Label{Key: "result", Value: "admitted"}),
		rejected: reg.Counter("nc_admit_verdicts_total", "admission decisions by result", obs.Label{Key: "result", Value: "rejected"}),
		cached:   reg.Counter("nc_admit_cached_total", "verdicts served from the epoch cache"),
		releases: reg.Counter("nc_admit_releases_total", "admitted flows released"),
		decision: reg.Histogram("nc_admit_decision_seconds", "admission decision latency", DecisionBuckets),
		commitWait: reg.Histogram("nc_admit_commit_wait_seconds",
			"time spent waiting for and in the write-locked commit section per committed decision", DecisionBuckets),
		groupSize: reg.Histogram("nc_admit_group_size",
			"admissions decided together per combiner group commit", GroupSizeBuckets),
		sloFast: reg.Counter("nc_admit_slo_fast_total",
			"decisions completing within the latency objective"),
		internal: reg.Counter("nc_admit_internal_errors_total",
			"combiner groups that panicked and were answered with \"internal\" rejections (nothing committed)"),
		screened: reg.Counter("nc_admit_victims_screened_total",
			"victim classes cleared by the closed-form screen without an analysis"),
		certified: reg.Counter("nc_admit_victims_certified_total",
			"tight-rung victim classes cleared by a chain pass at their stored θ-vector without a search"),
		rungCombos: reg.Counter("nc_rung_combos_total",
			"tight-rung θ-vectors scored by the analyses decisions consulted (memo hits at their original cost)"),
		decWin:  obs.NewWindow(opts.WindowSeconds),
		slowWin: obs.NewWindow(opts.WindowSeconds),
	}
	c.obsm = m

	reg.Gauge("nc_admit_slo_objective_seconds",
		"decision-latency objective the SLO instruments measure against").Set(opts.SLOObjective.Seconds())
	reg.GaugeFunc("nc_admit_slo_budget_burn",
		"windowed slow-decision fraction over the error budget (>1 means burning faster than allowed)",
		func() float64 {
			total := m.decWin.Sum()
			if total == 0 {
				return 0
			}
			return (float64(m.slowWin.Sum()) / float64(total)) / opts.SLOBudget
		})

	// Cache effectiveness, typed honestly: the hit/miss tallies are
	// monotone, so they render as counters reading from the per-scrape
	// snapshot the collector refreshes.
	for _, layer := range []string{"verdict", "analysis"} {
		l := obs.Label{Key: "cache", Value: layer}
		layer := layer
		reg.CounterFunc("nc_cache_hits_total", "cache hits by layer",
			func() float64 { h, _, _ := m.snapshot().cacheLayer(layer); return float64(h) }, l)
		reg.CounterFunc("nc_cache_misses_total", "cache misses by layer",
			func() float64 { _, mi, _ := m.snapshot().cacheLayer(layer); return float64(mi) }, l)
		reg.GaugeFunc("nc_cache_entries", "cache entries by layer",
			func() float64 { _, _, e := m.snapshot().cacheLayer(layer); return float64(e) }, l)
		reg.GaugeFunc("nc_cache_hit_rate", "hits/(hits+misses) by layer",
			func() float64 { h, mi, _ := m.snapshot().cacheLayer(layer); return obs.HitRate(h, mi) }, l)
	}

	// The operator and analysis families exist (at zero) from startup, and
	// the hooks hold their series: no registry lookup on the operator path.
	var opCalls [curve.NumOpKinds]*obs.Counter
	for _, op := range curve.OpKinds() {
		opCalls[op] = reg.Counter("nc_curve_ops_total", "curve operator calls",
			obs.Label{Key: "op", Value: op.String()})
	}
	analysisSeconds := reg.Histogram("nc_analysis_seconds",
		"computed analysis cost, one observation per chain pass (an admission check) or full analysis (core.Memo hits are not timed)", AnalysisBuckets)
	curve.SetOpCounter(func(op curve.OpKind) { opCalls[op].Inc() })
	core.SetAnalysisTimer(analysisSeconds.Observe)

	reg.AddCollector(func(r *obs.Registry) { c.collect(r) })
}

// cacheLayer maps a layer name onto the snapshot's counters.
func (s Stats) cacheLayer(layer string) (hits, misses uint64, entries int) {
	switch layer {
	case "verdict":
		return s.VerdictHits, s.VerdictMisses, s.VerdictEntries
	case "analysis":
		return s.AnalysisHits, s.AnalysisMisses, s.AnalysisEntries
	}
	return 0, 0, 0
}

// collect snapshots registry-independent controller state into gauges; runs
// at scrape time (before family rendering, so the CounterFunc closures read
// the fresh snapshot).
func (c *Controller) collect(r *obs.Registry) {
	m := c.obsm
	st := c.Stats()
	m.stMu.Lock()
	m.st = st
	m.stMu.Unlock()

	set := func(name, help string, v float64, labels ...obs.Label) {
		r.Gauge(name, help, labels...).Set(v)
	}
	set("nc_admit_epoch", "platform epoch (bumps on every commit/release)", float64(c.Epoch()))
	set("nc_admit_flows", "currently admitted flows", float64(st.Flows))
	set("nc_admit_classes", "distinct admitted flow classes (shared curves+path+SLO)", float64(st.Classes))

	if rec := c.rec; rec != nil {
		set("nc_admit_recorder_depth", "decisions retained in the flight recorder", float64(rec.Depth()))
	}

	if !m.opts.PerNodeMetrics {
		return
	}
	// Per-node reservation pressure: reserved rate (tenants + static
	// background) over the node's service rate — the live utilization figure
	// behind every verdict. Opt-in: one series per node per family.
	for _, name := range c.order {
		sh := c.shards[name]
		c.mu.RLock()
		agg, nflows := sh.cross.total, sh.nflows
		c.mu.RUnlock()
		rate := sh.node.Rate
		reserved := agg.Rate + sh.node.CrossRate
		burst := agg.Burst + sh.node.CrossBurst

		l := obs.Label{Key: "node", Value: name}
		set("nc_node_reserved_rate_bytes_per_second", "aggregate reserved cross-traffic rate (local units)", float64(reserved), l)
		set("nc_node_reserved_burst_bytes", "aggregate reserved cross-traffic burst (local units)", float64(burst), l)
		set("nc_node_flows", "flows holding reservations on the node", float64(nflows), l)
		util := 0.0
		if rate > 0 {
			util = float64(reserved) / float64(rate)
		}
		set("nc_node_utilization", "reserved rate over service rate", util, l)
	}
}

// SetAudit attaches a structured audit logger: every admission decision and
// release emits one slog record with the flow, verdict, binding constraint,
// promised bounds, and decision latency. Nil detaches (the default).
func (c *Controller) SetAudit(l *slog.Logger) { c.audit = l }

// DecisionRate returns decisions per second averaged over the metrics
// window (0 without EnableObs). O(window seconds); safe for /healthz.
func (c *Controller) DecisionRate() float64 {
	if m := c.obsm; m != nil {
		return m.decWin.Rate()
	}
	return 0
}

// noteDecision feeds the SLO instruments and the decisions-per-second
// window (all decision kinds: admissions, batches, releases).
func (m *ctrlObs) noteDecision(took time.Duration) {
	m.decWin.Add(1)
	if took <= m.opts.SLOObjective {
		m.sloFast.Inc()
	} else {
		m.slowWin.Add(1)
	}
}

// observeDecisionLatency records one admission-decision latency on the
// histogram (with a flight-recorder exemplar when seq != 0) and the SLO
// instruments.
func (m *ctrlObs) observeDecisionLatency(took time.Duration, seq uint64, flowID string) {
	secs := took.Seconds()
	if seq != 0 {
		labels := []obs.Label{{Key: "decision_seq", Value: itoa(seq)}}
		if flowID != "" {
			labels = append(labels, obs.Label{Key: "flow_id", Value: flowID})
		}
		m.decision.ObserveEx(secs, &obs.Exemplar{
			Labels: labels,
			Value:  secs,
			Ts:     float64(time.Now().UnixNano()) / 1e9,
		})
	} else {
		m.decision.Observe(secs)
	}
	m.noteDecision(took)
}

// observeAdmit finalizes one decision trace and records it on the attached
// metrics/recorder/audit sinks.
func (c *Controller) observeAdmit(v Verdict, tr *decTrace) {
	tr.mark(PhaseHandoff)
	took := tr.span.Total()

	rec := tr.record(took)
	rec.FlowID = v.FlowID
	rec.Admitted = v.Admitted
	rec.Cached = v.Cached
	rec.Binding = v.Binding
	rec.Rung = v.Rung
	rec.Epoch = v.Epoch
	seq := c.pushRecord(rec)

	if m := c.obsm; m != nil {
		if v.Admitted {
			m.admitted.Inc()
		} else {
			m.rejected.Inc()
		}
		if v.Cached {
			m.cached.Inc()
		}
		m.observeDecisionLatency(took, seq, v.FlowID)
	}
	if c.audit != nil {
		attrs := []any{
			"flow_id", v.FlowID,
			"admitted", v.Admitted,
			"binding", v.Binding,
			"rung", v.Rung,
			"epoch", v.Epoch,
			"cached", v.Cached,
			"decision_us", took.Microseconds(),
			"victims_screened", rec.VictimsScreened,
			"victims_certified", rec.VictimsCertified,
		}
		if v.Admitted {
			attrs = append(attrs,
				"delay", v.Delay.String(),
				"backlog_bytes", float64(v.Backlog),
				"throughput", v.Throughput.String(),
				"bottleneck", v.Bottleneck,
				"headroom_rate", v.HeadroomRate.String(),
			)
		} else {
			attrs = append(attrs, "reason", v.Reason)
		}
		c.audit.Info("admit.verdict", attrs...)
	}
}

// noteInternalError records a panic the combiner leader recovered from.
func (c *Controller) noteInternalError(r any, stack []byte) {
	if m := c.obsm; m != nil {
		m.internal.Inc()
	}
	if c.audit != nil {
		c.audit.Error("admit.internal", "panic", fmt.Sprint(r), "stack", string(stack))
	}
}

// observeCommitWait records the duration of one write-locked commit section,
// from asking for the lock.
func (c *Controller) observeCommitWait(d time.Duration) {
	if m := c.obsm; m != nil {
		m.commitWait.Observe(d.Seconds())
	}
}

// observeRelease finalizes one release trace and records it on the
// attached sinks.
func (c *Controller) observeRelease(id string, ok bool, tr *decTrace) {
	tr.mark(PhaseHandoff)
	took := tr.span.Total()

	rec := tr.record(took)
	rec.FlowID = id
	rec.Released = ok
	c.pushRecord(rec)

	if m := c.obsm; m != nil {
		if ok {
			m.releases.Inc()
		}
		// Releases feed the decision-rate window and SLO accounting but not
		// the admission-latency histogram (it measures admissions only).
		m.noteDecision(took)
	}
	if c.audit != nil {
		c.audit.Info("admit.release", "flow_id", id, "released", ok,
			"decision_us", took.Microseconds())
	}
}

// instrumented reports whether any decision sink is attached.
func (c *Controller) instrumented() bool {
	return c.obsm != nil || c.audit != nil || c.rec != nil
}
