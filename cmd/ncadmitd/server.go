package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/obs"
	"streamcalc/internal/spec"
	"streamcalc/internal/units"
)

// verdictJSON is the wire form of an admission verdict. Durations render as
// Go duration strings; rates and sizes use the units package text forms.
type verdictJSON struct {
	FlowID       string      `json:"flow_id"`
	Admitted     bool        `json:"admitted"`
	Reason       string      `json:"reason"`
	Binding      string      `json:"binding,omitempty"`
	Delay        string      `json:"delay,omitempty"`
	Backlog      units.Bytes `json:"backlog,omitempty"`
	Throughput   units.Rate  `json:"throughput,omitempty"`
	Bottleneck   string      `json:"bottleneck,omitempty"`
	HeadroomRate units.Rate  `json:"headroom_rate,omitempty"`
	Rung         string      `json:"rung,omitempty"`
	Epoch        uint64      `json:"epoch"`
}

func toVerdictJSON(v admit.Verdict) verdictJSON {
	out := verdictJSON{
		FlowID:   v.FlowID,
		Admitted: v.Admitted,
		Reason:   v.Reason,
		Binding:  v.Binding,
		Rung:     v.Rung,
		Epoch:    v.Epoch,
	}
	if v.Admitted {
		out.Delay = v.Delay.String()
		out.Backlog = v.Backlog
		out.Throughput = v.Throughput
		out.Bottleneck = v.Bottleneck
		out.HeadroomRate = v.HeadroomRate
	}
	return out
}

// flowJSON is a registry listing entry.
type flowJSON struct {
	ID      string      `json:"id"`
	Path    []string    `json:"path"`
	Rate    units.Rate  `json:"rate"`
	Burst   units.Bytes `json:"burst"`
	Verdict verdictJSON `json:"verdict"`
}

// residualJSON is the wire form of a node residual report.
type residualJSON struct {
	Node    string     `json:"node"`
	Flows   []string   `json:"flows"`
	Cross   bucketJSON `json:"cross"`
	Rate    units.Rate `json:"rate"`
	Latency string     `json:"latency"`
	Starved bool       `json:"starved,omitempty"`
	Service units.Rate `json:"service_rate"`
}

type bucketJSON struct {
	Rate  units.Rate  `json:"rate"`
	Burst units.Bytes `json:"burst"`
}

// revalidateJSON is the wire form of a batch revalidation report.
type revalidateJSON struct {
	Epoch      uint64                 `json:"epoch"`
	Violations int                    `json:"violations"`
	Flows      []flowRevalidationJSON `json:"flows"`
}

type flowRevalidationJSON struct {
	FlowID        string      `json:"flow_id"`
	Delay         string      `json:"delay"`
	Backlog       units.Bytes `json:"backlog"`
	Throughput    units.Rate  `json:"throughput"`
	SimDelayMax   string      `json:"sim_delay_max"`
	SimMaxBacklog units.Bytes `json:"sim_max_backlog"`
	SimThroughput units.Rate  `json:"sim_throughput"`
	Violations    []string    `json:"violations,omitempty"`
}

// serverOptions tunes the HTTP surface beyond the core admission API.
type serverOptions struct {
	// pprof mounts net/http/pprof under /debug/pprof/ (off by default:
	// profiling endpoints leak heap contents and should only be exposed
	// deliberately).
	pprof bool
	// metrics, when non-nil, serves the registry on GET /metrics and
	// registers the bound-tightness collector on it.
	metrics *obs.Registry
	// replay tunes every replay the server runs, POST /revalidate and the
	// /metrics tightness probe (input volume per flow, seed).
	replay admit.ReplayOptions
	// start is the process start time behind /healthz uptime_seconds (zero
	// hides the field — tests construct servers without one).
	start time.Time
}

// newServer wires the admission API onto a Go 1.22 pattern mux.
func newServer(c *admit.Controller, opt serverOptions) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /admit", func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r, 1<<20)
		if !ok {
			return
		}
		f, err := parseFlowBody(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		v := c.Admit(f)
		status := http.StatusOK
		if !v.Admitted {
			// The platform cannot host the flow as offered.
			status = http.StatusConflict
		}
		writeJSON(w, status, toVerdictJSON(v))
	})

	mux.HandleFunc("POST /admit/batch", func(w http.ResponseWriter, r *http.Request) {
		// Batch bodies carry whole populations; allow up to 64 MiB (a
		// million-flow ramp arrives as ~60 batches of 16k flows each).
		body, ok := readBody(w, r, 1<<26)
		if !ok {
			return
		}
		wire, err := spec.ParseFlows(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		flows := make([]admit.Flow, len(wire))
		for i := range wire {
			if flows[i], err = wire[i].Admit(); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("flow %d: %w", i, err))
				return
			}
		}
		vs := c.AdmitBatch(flows)
		out := make([]verdictJSON, len(vs))
		for i, v := range vs {
			out[i] = toVerdictJSON(v)
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /flows/{id}/recheck", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, err := c.Recheck(id)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		status := http.StatusOK
		if !v.Admitted {
			status = http.StatusConflict
		}
		writeJSON(w, status, toVerdictJSON(v))
	})

	mux.HandleFunc("DELETE /flows/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !c.Release(id) {
			httpError(w, http.StatusNotFound, fmt.Errorf("no admitted flow %q", id))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /flows", func(w http.ResponseWriter, r *http.Request) {
		flows := c.Flows()
		out := make([]flowJSON, 0, len(flows))
		for _, af := range flows {
			out = append(out, flowJSON{
				ID:      af.Flow.ID,
				Path:    af.Flow.Path,
				Rate:    af.Flow.Arrival.Rate,
				Burst:   af.Flow.Arrival.Burst,
				Verdict: toVerdictJSON(af.Verdict),
			})
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /nodes/{name}/residual", func(w http.ResponseWriter, r *http.Request) {
		res, err := c.ResidualService(r.PathValue("name"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, residualJSON{
			Node:    res.Node.Name,
			Flows:   res.Flows,
			Cross:   bucketJSON{Rate: res.Cross.Rate, Burst: res.Cross.Burst},
			Rate:    res.Rate,
			Latency: time.Duration(res.Latency * float64(time.Second)).String(),
			Starved: res.Starved,
			Service: res.Node.Rate,
		})
	})

	mux.HandleFunc("POST /revalidate", func(w http.ResponseWriter, r *http.Request) {
		workers := 0 // GOMAXPROCS
		if q := r.URL.Query().Get("workers"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad workers %q", q))
				return
			}
			workers = n
		}
		rep, err := c.RevalidateAll(admit.RevalidateOptions{
			Replay:  opt.replay,
			Workers: workers,
			Context: r.Context(),
			Metrics: opt.metrics,
		})
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		out := revalidateJSON{Epoch: rep.Epoch, Violations: rep.Violations}
		for _, fr := range rep.Flows {
			out.Flows = append(out.Flows, flowRevalidationJSON{
				FlowID:        fr.FlowID,
				Delay:         fr.Delay.String(),
				Backlog:       fr.Backlog,
				Throughput:    fr.Throughput,
				SimDelayMax:   fr.SimDelayMax.String(),
				SimMaxBacklog: fr.SimMaxBacklog,
				SimThroughput: fr.SimThroughput,
				Violations:    fr.Violations,
			})
		}
		status := http.StatusOK
		if rep.Violations > 0 {
			status = http.StatusConflict
		}
		writeJSON(w, status, out)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		// epoch is the global commit counter: it steps once per committed
		// transaction or release.
		health := map[string]any{
			"ok":               true,
			"platform":         c.Name(),
			"epoch":            c.Epoch(),
			"flows":            c.FlowCount(),
			"classes":          c.ClassCount(),
			"heap_alloc_bytes": mem.HeapAlloc,
			"heap_sys_bytes":   mem.HeapSys,
		}
		// Liveness extras stay O(1): uptime is a clock read, the decision
		// rate is a fixed-size window sum, and recorder depth is one mutex.
		if !opt.start.IsZero() {
			health["uptime_seconds"] = time.Since(opt.start).Seconds()
		}
		health["decisions_per_second"] = c.DecisionRate()
		if rec := c.Recorder(); rec != nil {
			health["recorder"] = map[string]any{
				"depth": rec.Depth(),
				"cap":   rec.Cap(),
				"seq":   rec.Seq(),
			}
		}
		writeJSON(w, http.StatusOK, health)
	})

	// Flight recorder: the last N finished decisions, newest first. 404 when
	// the recorder is disabled (-decisions 0) so probes can distinguish
	// "off" from "empty".
	mux.HandleFunc("GET /debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		rec := c.Recorder()
		if rec == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("flight recorder disabled (-decisions 0)"))
			return
		}
		limit, err := decisionLimit(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		records := rec.Snapshot(limit)
		writeJSON(w, http.StatusOK, map[string]any{
			"depth":   rec.Depth(),
			"cap":     rec.Cap(),
			"seq":     rec.Seq(),
			"records": records,
		})
	})

	mux.HandleFunc("GET /debug/decisions/trace", func(w http.ResponseWriter, r *http.Request) {
		rec := c.Recorder()
		if rec == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("flight recorder disabled (-decisions 0)"))
			return
		}
		limit, err := decisionLimit(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		rec.Trace(limit).WriteJSON(w)
	})

	if opt.metrics != nil {
		opt.metrics.AddCollector((&tightnessProbe{c: c, opt: opt.replay}).collect)
		mux.HandleFunc("GET /metrics", metricsHandler(opt.metrics))
	}

	if opt.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	return mux
}

// decisionLimit parses the ?n= record limit (0 = all retained).
func decisionLimit(r *http.Request) (int, error) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad n %q", q)
	}
	return n, nil
}

// parseFlowBody decodes a wire flow and converts it to the controller type.
func parseFlowBody(body []byte) (admit.Flow, error) {
	fl, err := spec.ParseFlow(body)
	if err != nil {
		return admit.Flow{}, err
	}
	return fl.Admit()
}

// writeJSON answers v as one line of compact JSON and a newline (pipe to
// jq . to read it indented).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// readBody reads r's body up to limit bytes. A longer body is answered 413,
// any other read error 400; ok is false once an error has been written.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return nil, false
	}
	return body, true
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
