package load

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/gen"
	"streamcalc/internal/obs"
	"streamcalc/internal/spec"
)

func smallConfig(t *testing.T) (Config, Scenario) {
	t.Helper()
	sc := DefaultScenario(2000)
	pop, err := gen.NewPopulation(sc.Spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := sc.Controller()
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Target:    InProc{C: ctrl},
		Pop:       pop,
		Flows:     2000,
		BatchSize: 512,
		Workers:   4,
		TargetRPS: 600,
		Warmup:    200 * time.Millisecond,
		Measure:   time.Second,
	}, sc
}

func TestHarnessInProc(t *testing.T) {
	cfg, _ := smallConfig(t)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.Target.(InProc).C.EnableFlightRecorder(1 << 14)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ramp.Admitted < cfg.Flows {
		t.Fatalf("ramp admitted %d < target %d (offered %d)", rep.Ramp.Admitted, cfg.Flows, rep.Ramp.Offered)
	}
	if rep.Steady.Flows < cfg.Flows {
		t.Fatalf("steady flows %d < target %d", rep.Steady.Flows, cfg.Flows)
	}
	if rep.Steady.Classes == 0 || rep.Steady.Classes > 64 {
		t.Fatalf("steady classes %d out of [1, 64]", rep.Steady.Classes)
	}
	// Open loop: every scheduled op is issued and answered, however late.
	// (The achieved rate is whatever the host allows beside the packages
	// `go test ./...` runs in parallel, so it is logged, not asserted.)
	plan, _ := planWindow(cfg.Pop, cfg.Flows, cfg.Warmup+cfg.Measure, cfg.TargetRPS)
	if got := rep.Churn.WarmupOps + rep.Churn.MeasuredOps; got != len(plan) || rep.Churn.MeasuredOps == 0 {
		t.Fatalf("%d churn ops answered (%d measured) of %d scheduled", got, rep.Churn.MeasuredOps, len(plan))
	}
	answered := 0
	for kind, st := range rep.Churn.Ops {
		if st.Errors > 0 {
			t.Errorf("%s: %d errors", kind, st.Errors)
		}
		answered += st.Count
	}
	if answered != rep.Churn.MeasuredOps {
		t.Errorf("per-kind counts sum to %d, measured %d", answered, rep.Churn.MeasuredOps)
	}
	if ad := rep.Churn.Ops["admit"]; ad.Count == 0 || ad.P50 <= 0 {
		t.Fatalf("bad admit stats: %+v", ad)
	}
	t.Logf("achieved %.1f rps vs target %.1f, lateness p99 %v", rep.Churn.AchievedRPS, rep.Churn.TargetRPS, rep.Churn.Lateness.P99)

	// The target's flight recorder feeds a per-phase breakdown: single-flow
	// admissions always pass precheck and the combiner queue.
	if len(rep.Churn.Phases) == 0 {
		t.Fatal("no phase breakdown despite an enabled flight recorder")
	}
	for _, phase := range []string{"precheck", "queue_wait"} {
		st, ok := rep.Churn.Phases[phase]
		if !ok || st.Count == 0 || st.P99 <= 0 {
			t.Errorf("phase %q stats missing/empty: %+v", phase, st)
		}
	}

	// The report round-trips as JSON and renders benchjson-parseable lines.
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	bench := rep.BenchText()
	for _, want := range []string{"BenchmarkNcloadRamp ", "BenchmarkNcloadChurnAdmit ", "BenchmarkNcloadPacing ", "BenchmarkNcloadPhaseQueueWait "} {
		if !strings.Contains(bench, want) {
			t.Fatalf("bench text missing %q:\n%s", want, bench)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(bench), "\n") {
		if f := strings.Fields(line); len(f) < 4 || len(f)%2 != 0 {
			t.Fatalf("malformed bench line (want name + iters + value/unit pairs): %q", line)
		}
	}
}

// The HTTP target must drive the daemon's REST surface; a stub server
// exposing the same routes over a real controller checks the client side.
func TestHarnessHTTP(t *testing.T) {
	cfg, sc := smallConfig(t)
	ctrl, err := sc.Controller()
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /admit/batch", func(w http.ResponseWriter, r *http.Request) {
		var wire []spec.Flow
		if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		flows := make([]admit.Flow, 0, len(wire))
		for i := range wire {
			f, err := wire[i].Admit()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			flows = append(flows, f)
		}
		type verdict struct {
			Admitted bool `json:"admitted"`
		}
		vs := ctrl.AdmitBatch(flows)
		out := make([]verdict, len(vs))
		for i, v := range vs {
			out[i] = verdict{Admitted: v.Admitted}
		}
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("POST /admit", func(w http.ResponseWriter, r *http.Request) {
		var wire spec.Flow
		if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f, err := wire.Admit()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !ctrl.Admit(f).Admitted {
			w.WriteHeader(http.StatusConflict)
			return
		}
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("DELETE /flows/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !ctrl.Release(r.PathValue("id")) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /flows/{id}/recheck", func(w http.ResponseWriter, r *http.Request) {
		v, err := ctrl.Recheck(r.PathValue("id"))
		if err != nil {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		if !v.Admitted {
			w.WriteHeader(http.StatusConflict)
			return
		}
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"flows": ctrl.FlowCount(), "classes": ctrl.ClassCount(),
			"epoch": ctrl.Epoch(), "heap_alloc_bytes": 1,
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cfg.Target = &HTTP{Base: srv.URL, Client: srv.Client()}
	cfg.Flows = 500
	cfg.BatchSize = 128
	cfg.TargetRPS = 300
	cfg.Measure = 500 * time.Millisecond
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ramp.Admitted < cfg.Flows {
		t.Fatalf("http ramp admitted %d < %d", rep.Ramp.Admitted, cfg.Flows)
	}
	if rep.Churn.MeasuredOps == 0 {
		t.Fatal("no measured ops over http")
	}
	for k, st := range rep.Churn.Ops {
		if st.Errors > 0 {
			t.Fatalf("op %s saw %d transport errors", k, st.Errors)
		}
	}
}

// The ramp request stream is deterministic: two harness runs from the same
// spec and seed offer identical flows (runtime latencies differ; the
// request sequence must not).
func TestHarnessDeterministicWorkload(t *testing.T) {
	sc := DefaultScenario(1000)
	a, err := gen.NewPopulation(sc.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.NewPopulation(sc.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	af, bf := a.Flows(0, 1000), b.Flows(0, 1000)
	for i := range af {
		if af[i].ID != bf[i].ID || af[i].Arrival.Rate != bf[i].Arrival.Rate ||
			af[i].Arrival.Burst != bf[i].Arrival.Burst {
			t.Fatalf("flow %d differs between identically seeded populations", i)
		}
	}
}

// The rung sweep is the acceptance artifact for the FIFO tightness ladder:
// the tight rung must admit strictly more identical-SLA tenants than blind,
// every rung's sim replay must respect its promised bounds, and the bench
// rendering must carry the admitted counts into BENCH_fifo.json.
func TestRungSweepLadder(t *testing.T) {
	rep, err := RungSweep(RungSweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	blind, tight := rep.Result("blind"), rep.Result("tight")
	if blind == nil || tight == nil {
		t.Fatalf("missing rung results: %+v", rep.Rungs)
	}
	if tight.Admitted <= blind.Admitted {
		t.Fatalf("tight admitted %d, blind %d — want strictly more", tight.Admitted, blind.Admitted)
	}
	if !strings.Contains(rep.BenchText(), "BenchmarkRungSweepTight") {
		t.Errorf("bench text missing tight rung:\n%s", rep.BenchText())
	}
}
