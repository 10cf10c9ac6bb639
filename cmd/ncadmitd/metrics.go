package main

import (
	"net/http"
	"sync"

	"streamcalc/internal/admit"
	"streamcalc/internal/obs"
)

// tightnessProbe publishes bound-vs-observed gauges for every admitted flow:
// the analytic delay/backlog bound next to the sim-replayed p50/p99/max, and
// their ratio (nc_bound_tightness, ≥ 1 when the network-calculus promise is
// sound). The gauges come from one RevalidateAll report, kept until the
// platform epoch moves: a scrape after a quiet period costs nothing, and an
// admission or release makes the next scrape replay the registry again.
type tightnessProbe struct {
	c   *admit.Controller
	opt admit.ReplayOptions

	mu  sync.Mutex
	rep *admit.RevalidateReport // last report, valid while its Epoch is current
}

// tightnessFamilies are reset on every scrape so released flows' series
// disappear instead of lingering at their last value.
var tightnessFamilies = []string{
	"nc_bound_tightness",
	"nc_bound_delay_seconds",
	"nc_sim_delay_seconds",
	"nc_bound_backlog_bytes",
	"nc_sim_backlog_bytes",
}

// tightnessMaxFlows caps the per-flow replay fan-out: beyond this many
// registered flows a scrape would spend seconds simulating (and the
// per-flow series would blow up cardinality anyway), so the probe
// publishes only nc_tightness_skipped_flows and bails.
const tightnessMaxFlows = 512

// report returns a revalidation of the registry at the current epoch,
// replaying it only when the epoch has moved since the last report. A
// failed pass is not kept, so the next scrape retries it.
func (p *tightnessProbe) report() (*admit.RevalidateReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rep != nil && p.rep.Epoch == p.c.Epoch() {
		return p.rep, nil
	}
	rep, err := p.c.RevalidateAll(admit.RevalidateOptions{Replay: p.opt, Workers: 1})
	if err != nil {
		return nil, err
	}
	p.rep = rep
	return rep, nil
}

// collect runs at scrape time as an obs.Registry collector.
func (p *tightnessProbe) collect(r *obs.Registry) {
	for _, fam := range tightnessFamilies {
		r.ResetFamily(fam)
	}
	if n := p.c.FlowCount(); n > tightnessMaxFlows {
		r.Gauge("nc_tightness_skipped_flows",
			"flows not replayed because the registry exceeds the tightness probe cap").
			Set(float64(n))
		return
	}
	r.Gauge("nc_tightness_skipped_flows",
		"flows not replayed because the registry exceeds the tightness probe cap").
		Set(0)
	// A failed replay pass publishes no per-flow series this round.
	var flows []admit.FlowRevalidation
	if rep, err := p.report(); err == nil {
		flows = rep.Flows
	}
	capped := 0
	for _, fr := range flows {
		fl := obs.Label{Key: "flow", Value: fr.FlowID}
		if fr.Capped {
			// The replay hit its event cap: the observed maxima cover only a
			// prefix of the run, so the bound-over-observed ratios would read
			// as slack that was never verified. Publish the raw bound/sim
			// gauges below, but withhold the tightness ratios and count the
			// flow as capped instead.
			capped++
		} else {
			dim := func(d string) []obs.Label {
				return []obs.Label{fl, {Key: "dimension", Value: d},
					{Key: "rung", Value: fr.Rung}}
			}
			r.Gauge("nc_bound_tightness",
				"analytic bound over sim-observed max (>= 1 means the promise held)",
				dim("delay")...).Set(ratio(fr.Delay.Seconds(), fr.SimDelayMax.Seconds()))
			r.Gauge("nc_bound_tightness",
				"analytic bound over sim-observed max (>= 1 means the promise held)",
				dim("backlog")...).Set(ratio(float64(fr.Backlog), float64(fr.SimMaxBacklog)))
		}

		r.Gauge("nc_bound_delay_seconds", "analytic end-to-end delay bound", fl).
			Set(fr.Delay.Seconds())
		q := func(name string) []obs.Label {
			return []obs.Label{fl, {Key: "quantile", Value: name}}
		}
		r.Gauge("nc_sim_delay_seconds", "sim-replayed sojourn quantiles", q("p50")...).
			Set(fr.SimDelayP50.Seconds())
		r.Gauge("nc_sim_delay_seconds", "sim-replayed sojourn quantiles", q("p99")...).
			Set(fr.SimDelayP99.Seconds())
		r.Gauge("nc_sim_delay_seconds", "sim-replayed sojourn quantiles", q("max")...).
			Set(fr.SimDelayMax.Seconds())

		r.Gauge("nc_bound_backlog_bytes", "analytic end-to-end backlog bound", fl).
			Set(float64(fr.Backlog))
		r.Gauge("nc_sim_backlog_bytes", "sim-replayed peak backlog", fl).
			Set(float64(fr.SimMaxBacklog))
	}
	r.Gauge("nc_tightness_capped_flows",
		"flows whose replay hit the event cap; their tightness ratios are withheld").
		Set(float64(capped))
}

// ratio is bound over observed, 0 when nothing was observed.
func ratio(bound, observed float64) float64 {
	if observed <= 0 {
		return 0
	}
	return bound / observed
}

// metricsHandler serves the registry: Prometheus text exposition by default,
// the JSON snapshot with ?format=json.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}
