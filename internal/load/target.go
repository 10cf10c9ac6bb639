// Package load is an open-loop load harness for the admission controller:
// it ramps a generated tenant population (internal/gen) into a target —
// an in-process admit.Controller or a running ncadmitd over HTTP — then
// drives a paced churn schedule through warmup and measure phases,
// recording per-op latency, pacing lateness, and registry/heap state into a
// reproducible JSON report.
//
// The harness is open-loop by design: every operation has a scheduled
// issue time fixed before the run starts (gen.Population.PlanOps), and
// workers sleep until each op's deadline rather than issuing as fast as
// responses return. A closed-loop driver self-throttles when the system
// slows down, silently hiding overload (coordinated omission); open-loop
// pacing keeps offered load constant and surfaces overload honestly as
// growing lateness and latency tails.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"

	"streamcalc/internal/admit"
	"streamcalc/internal/spec"
)

// TargetStats is the steady-state snapshot the harness asserts between
// phases.
type TargetStats struct {
	Flows     int    `json:"flows"`
	Classes   int    `json:"classes"`
	Epoch     uint64 `json:"epoch"`
	HeapAlloc uint64 `json:"heap_alloc_bytes"`
	HeapSys   uint64 `json:"heap_sys_bytes"`
}

// Target abstracts where the load lands: the in-process controller or a
// remote ncadmitd. Implementations must be safe for concurrent use.
type Target interface {
	// Admit offers one flow; admitted reports the verdict. err is reserved
	// for transport/protocol failures — a rejection is not an error.
	Admit(f admit.Flow) (admitted bool, err error)
	// AdmitBatch offers a batch transactionally, returning the number
	// admitted.
	AdmitBatch(fs []admit.Flow) (admitted int, err error)
	// Release frees a flow; ok is false when the flow wasn't registered
	// (a planned-schedule miss, not an error).
	Release(id string) (ok bool, err error)
	// Recheck re-asserts one admitted flow's SLO analytically; ok is false
	// when the flow wasn't registered.
	Recheck(id string) (ok bool, err error)
	// Stats snapshots the registry and heap.
	Stats() (TargetStats, error)
	// Decisions returns up to limit flight-recorder records, newest first
	// (limit <= 0 means all retained). Targets without a recorder return
	// (nil, nil); the harness then simply omits the phase breakdown.
	Decisions(limit int) ([]admit.DecisionRecord, error)
}

// --- In-process target ------------------------------------------------------

// InProc drives an admit.Controller directly — the configuration that
// isolates controller cost from HTTP transport cost.
type InProc struct{ C *admit.Controller }

func (t InProc) Admit(f admit.Flow) (bool, error) { return t.C.Admit(f).Admitted, nil }

func (t InProc) AdmitBatch(fs []admit.Flow) (int, error) {
	n := 0
	for _, v := range t.C.AdmitBatch(fs) {
		if v.Admitted {
			n++
		}
	}
	return n, nil
}

func (t InProc) Release(id string) (bool, error) { return t.C.Release(id), nil }

func (t InProc) Recheck(id string) (bool, error) {
	v, err := t.C.Recheck(id)
	if err != nil {
		return false, nil // not admitted: a schedule miss
	}
	return v.Admitted, nil
}

func (t InProc) Decisions(limit int) ([]admit.DecisionRecord, error) {
	rec := t.C.Recorder()
	if rec == nil {
		return nil, nil
	}
	return rec.Snapshot(limit), nil
}

func (t InProc) Stats() (TargetStats, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return TargetStats{
		Flows:     t.C.FlowCount(),
		Classes:   t.C.ClassCount(),
		Epoch:     t.C.Epoch(),
		HeapAlloc: m.HeapAlloc,
		HeapSys:   m.HeapSys,
	}, nil
}

// --- HTTP target ------------------------------------------------------------

// HTTP drives a running ncadmitd over its REST API.
type HTTP struct {
	Base   string // e.g. "http://127.0.0.1:8080"
	Client *http.Client
}

func (t *HTTP) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func (t *HTTP) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.Base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

func (t *HTTP) Admit(f admit.Flow) (bool, error) {
	body, err := json.Marshal(spec.FromAdmit(f))
	if err != nil {
		return false, err
	}
	status, _, err := t.do(http.MethodPost, "/admit", body)
	if err != nil {
		return false, err
	}
	switch status {
	case http.StatusOK:
		return true, nil
	case http.StatusConflict:
		return false, nil
	}
	return false, fmt.Errorf("POST /admit: unexpected status %d", status)
}

func (t *HTTP) AdmitBatch(fs []admit.Flow) (int, error) {
	wire := make([]spec.Flow, len(fs))
	for i, f := range fs {
		wire[i] = spec.FromAdmit(f)
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return 0, err
	}
	status, out, err := t.do(http.MethodPost, "/admit/batch", body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("POST /admit/batch: unexpected status %d", status)
	}
	var verdicts []struct {
		Admitted bool `json:"admitted"`
	}
	if err := json.Unmarshal(out, &verdicts); err != nil {
		return 0, fmt.Errorf("POST /admit/batch: %w", err)
	}
	n := 0
	for _, v := range verdicts {
		if v.Admitted {
			n++
		}
	}
	return n, nil
}

func (t *HTTP) Release(id string) (bool, error) {
	status, _, err := t.do(http.MethodDelete, "/flows/"+id, nil)
	if err != nil {
		return false, err
	}
	switch status {
	case http.StatusNoContent:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("DELETE /flows/%s: unexpected status %d", id, status)
}

func (t *HTTP) Recheck(id string) (bool, error) {
	status, _, err := t.do(http.MethodGet, "/flows/"+id+"/recheck", nil)
	if err != nil {
		return false, err
	}
	switch status {
	case http.StatusOK:
		return true, nil
	case http.StatusConflict, http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("GET /flows/%s/recheck: unexpected status %d", id, status)
}

func (t *HTTP) Decisions(limit int) ([]admit.DecisionRecord, error) {
	path := "/debug/decisions"
	if limit > 0 {
		path += fmt.Sprintf("?n=%d", limit)
	}
	status, out, err := t.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		// Recorder disabled (or an older daemon): no phase breakdown.
		return nil, nil
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/decisions: unexpected status %d", status)
	}
	var body struct {
		Records []admit.DecisionRecord `json:"records"`
	}
	if err := json.Unmarshal(out, &body); err != nil {
		return nil, fmt.Errorf("GET /debug/decisions: %w", err)
	}
	return body.Records, nil
}

func (t *HTTP) Stats() (TargetStats, error) {
	status, out, err := t.do(http.MethodGet, "/healthz", nil)
	if err != nil {
		return TargetStats{}, err
	}
	if status != http.StatusOK {
		return TargetStats{}, fmt.Errorf("GET /healthz: unexpected status %d", status)
	}
	var h TargetStats
	if err := json.Unmarshal(out, &h); err != nil {
		return TargetStats{}, fmt.Errorf("GET /healthz: %w", err)
	}
	return h, nil
}
