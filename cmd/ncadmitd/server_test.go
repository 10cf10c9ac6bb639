package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/obs"
	"streamcalc/internal/spec"
	"streamcalc/internal/units"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	pl, err := spec.ParsePlatform([]byte(spec.ExamplePlatform()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := pl.Controller()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(c, serverOptions{}))
	t.Cleanup(ts.Close)
	return ts
}

// metricsServer is testServer plus a wired telemetry registry, so /metrics
// is live with the bound-tightness collector.
func metricsServer(t *testing.T) *httptest.Server {
	t.Helper()
	pl, err := spec.ParsePlatform([]byte(spec.ExamplePlatform()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := pl.Controller()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.EnableObsOpts(reg, admit.ObsOptions{PerNodeMetrics: true})
	c.EnableFlightRecorder(256)
	ts := httptest.NewServer(newServer(c, serverOptions{
		metrics: reg,
		replay:  admit.ReplayOptions{Total: 512 * units.KiB, Seed: 1},
		start:   time.Now(),
	}))
	t.Cleanup(ts.Close)
	return ts
}

func flowBody(id, rate string) string {
	return `{"id": "` + id + `",
		"arrival": {"rate": "` + rate + `", "burst": "64 KiB", "max_packet": "4 KiB"},
		"path": ["ingest", "encrypt", "uplink"],
		"slo": {"max_delay": "200ms", "min_throughput": "` + rate + `"}}`
}

func postAdmit(t *testing.T, ts *httptest.Server, body string) (*http.Response, verdictJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/admit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v verdictJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding verdict: %v", err)
	}
	return resp, v
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}

func TestAPIAdmitLifecycle(t *testing.T) {
	ts := testServer(t)

	// Admit two tenants.
	resp, v := postAdmit(t, ts, flowBody("cam-1", "10 MiB/s"))
	if resp.StatusCode != http.StatusOK || !v.Admitted {
		t.Fatalf("cam-1: status %d, verdict %+v", resp.StatusCode, v)
	}
	if v.Delay == "" || v.Bottleneck != "encrypt" {
		t.Errorf("verdict lacks explanation: %+v", v)
	}
	resp, v = postAdmit(t, ts, flowBody("cam-2", "15 MiB/s"))
	if resp.StatusCode != http.StatusOK || !v.Admitted {
		t.Fatalf("cam-2: status %d, verdict %+v", resp.StatusCode, v)
	}

	// The residual on the bottleneck shrank by the admitted rates.
	var res residualJSON
	if code := getJSON(t, ts, "/nodes/encrypt/residual", &res); code != http.StatusOK {
		t.Fatalf("residual: status %d", code)
	}
	if len(res.Flows) != 2 {
		t.Errorf("residual flows = %v", res.Flows)
	}
	if res.Rate >= res.Service {
		t.Errorf("residual rate %v not below service rate %v", res.Rate, res.Service)
	}

	// A hog is rejected with 409 and an explanation.
	resp, v = postAdmit(t, ts, flowBody("hog", "400 MiB/s"))
	if resp.StatusCode != http.StatusConflict || v.Admitted {
		t.Fatalf("hog: status %d, verdict %+v", resp.StatusCode, v)
	}
	if v.Binding == "" || !strings.Contains(v.Reason, "rejected") {
		t.Errorf("rejection lacks explanation: %+v", v)
	}

	// Registry listing.
	var flows []flowJSON
	if code := getJSON(t, ts, "/flows", &flows); code != http.StatusOK || len(flows) != 2 {
		t.Fatalf("flows: status %d, %d entries", code, len(flows))
	}

	// Release and re-query.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/flows/cam-1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if code := getJSON(t, ts, "/flows", &flows); code != http.StatusOK || len(flows) != 1 {
		t.Fatalf("flows after release: status %d, %d entries", code, len(flows))
	}

	// Unknown deletions 404.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/flows/ghost", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("ghost delete: status %d", dresp.StatusCode)
	}
}

// kneeBody is a valid arrival whose envelope the curve engine cannot build:
// its buckets cross below the engine's time resolution. halfKneeBody is the
// same arrival at half the rates and bursts, whose buckets cross at the same
// instants, on a path that can carry it.
const (
	kneeBody = `{"id":"knee","arrival":{"rate":"238 MiB/s","burst":"20 B","max_packet":"2.43 KiB",
	"extra":[{"rate":"895 MiB/s","burst":"1.33 B"},{"rate":"5.99 GiB/s","burst":"0.682 B"}]},"path":["ingest","encrypt"]}`
	halfKneeBody = `{"id":"half-knee","arrival":{"rate":"119 MiB/s","burst":"10 B","max_packet":"2.43 KiB",
	"extra":[{"rate":"447.5 MiB/s","burst":"0.665 B"},{"rate":"2.995 GiB/s","burst":"0.341 B"}]},"path":["ingest"]}`
)

// Such an arrival is decided like any other flow: refused for saturation
// where it overloads the path, admitted where the path carries it, and the
// daemon carries on.
func TestAPIUnrepresentableArrival(t *testing.T) {
	ts := testServer(t)
	resp, v := postAdmit(t, ts, kneeBody)
	if resp.StatusCode != http.StatusConflict || v.Admitted || v.Binding != "saturation" {
		t.Errorf("knee: status %d, %+v; want 409 with binding saturation", resp.StatusCode, v)
	}
	if resp, v := postAdmit(t, ts, halfKneeBody); resp.StatusCode != http.StatusOK || !v.Admitted {
		t.Errorf("half knee on a path that carries it: status %d, %+v", resp.StatusCode, v)
	}
	if resp, v := postAdmit(t, ts, flowBody("after", "1 MiB/s")); resp.StatusCode != http.StatusOK || !v.Admitted {
		t.Errorf("admit after the knee: status %d, %+v", resp.StatusCode, v)
	}
}

func TestAPIBadRequests(t *testing.T) {
	ts := testServer(t)

	resp, err := http.Post(ts.URL+"/admit", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", resp.StatusCode)
	}

	var res residualJSON
	if code := getJSON(t, ts, "/nodes/gpu/residual", &res); code != http.StatusNotFound {
		t.Errorf("unknown node: status %d", code)
	}
}

// filler is an endless body of 'x' bytes.
type filler struct{}

func (filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestAPIOversizedBodies: a body past a route's limit is refused with 413,
// not truncated into a 400 parse error.
func TestAPIOversizedBodies(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		path  string
		limit int64
	}{
		{"/admit", 1 << 20},
		{"/admit/batch", 1 << 26},
	} {
		t.Run(tc.path, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", io.LimitReader(filler{}, tc.limit+1))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%d bytes: status %d, want 413", tc.limit+1, resp.StatusCode)
			}
		})
	}
}

func TestAPIHealthz(t *testing.T) {
	ts := testServer(t)
	postAdmit(t, ts, flowBody("small", "1 MiB/s"))
	postAdmit(t, ts, flowBody("hog", "400 MiB/s"))

	var h map[string]any
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h["ok"] != true {
		t.Fatalf("healthz: status %d, %+v", code, h)
	}
	if h["platform"] != "edge-gateway" {
		t.Errorf("platform = %v", h["platform"])
	}
	for key, want := range map[string]float64{"epoch": 1, "flows": 1, "classes": 1} {
		if h[key] != want {
			t.Errorf("healthz %s = %v, want %v", key, h[key], want)
		}
	}
	// The controller holds no cache, so there is none to report.
	if c, ok := h["caches"]; ok {
		t.Errorf("healthz still reports caches: %+v", c)
	}
}

func TestAPIBatchAndRecheck(t *testing.T) {
	ts := testServer(t)

	// A batch with two fresh flows and one intra-batch duplicate: the
	// duplicate must reject, the rest register transactionally.
	batch := `[` + flowBody("b-1", "10 MiB/s") + `,` +
		flowBody("b-2", "15 MiB/s") + `,` +
		flowBody("b-1", "10 MiB/s") + `]`
	resp, err := http.Post(ts.URL+"/admit/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	var vs []verdictJSON
	if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(vs))
	}
	if !vs[0].Admitted || vs[0].FlowID != "b-1" {
		t.Errorf("b-1 verdict: %+v", vs[0])
	}
	if !vs[1].Admitted || vs[1].FlowID != "b-2" {
		t.Errorf("b-2 verdict: %+v", vs[1])
	}
	if vs[2].Admitted {
		t.Errorf("intra-batch duplicate admitted: %+v", vs[2])
	}

	// Recheck an admitted flow (200), then an unknown one (404).
	var v verdictJSON
	if code := getJSON(t, ts, "/flows/b-1/recheck", &v); code != http.StatusOK || !v.Admitted {
		t.Fatalf("recheck b-1: status %d, %+v", code, v)
	}
	var e map[string]string
	if code := getJSON(t, ts, "/flows/ghost/recheck", &e); code != http.StatusNotFound {
		t.Fatalf("recheck ghost: status %d", code)
	}

	// The enriched healthz reports O(1) registry and heap figures.
	var h struct {
		Flows     int    `json:"flows"`
		Classes   int    `json:"classes"`
		HeapAlloc uint64 `json:"heap_alloc_bytes"`
		HeapSys   uint64 `json:"heap_sys_bytes"`
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if h.Flows != 2 || h.Classes != 2 {
		t.Errorf("healthz flows/classes = %d/%d, want 2/2", h.Flows, h.Classes)
	}
	if h.HeapAlloc == 0 || h.HeapSys == 0 {
		t.Errorf("healthz heap figures missing: %+v", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := metricsServer(t)

	resp, v := postAdmit(t, ts, flowBody("cam-1", "10 MiB/s"))
	if resp.StatusCode != http.StatusOK || !v.Admitted {
		t.Fatalf("cam-1: status %d, verdict %+v", resp.StatusCode, v)
	}
	postAdmit(t, ts, flowBody("hog", "400 MiB/s"))

	get := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Errorf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	text := get()

	for _, want := range []string{
		"# TYPE nc_admit_verdicts_total counter",
		`nc_admit_verdicts_total{result="admitted"} 1`,
		`nc_admit_verdicts_total{result="rejected"} 1`,
		"# TYPE nc_admit_decision_seconds histogram",
		`nc_node_utilization{node="encrypt"}`,
		`nc_sim_delay_seconds{flow="cam-1",quantile="max"}`,
		`nc_bound_delay_seconds{flow="cam-1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Acceptance: the admitted flow exposes a bound-tightness gauge and the
	// analytic bound dominates the observed max sojourn (ratio >= 1).
	re := regexp.MustCompile(`nc_bound_tightness\{dimension="(delay|backlog)",flow="cam-1",rung="blind"\} (\S+)`)
	ms := re.FindAllStringSubmatch(text, -1)
	if len(ms) != 2 {
		t.Fatalf("want 2 nc_bound_tightness series for cam-1, got %d in:\n%s", len(ms), text)
	}
	for _, m := range ms {
		ratio, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", m[0], err)
		}
		if ratio < 1.0 {
			t.Errorf("%s tightness %v < 1.0: analytic bound below observation", m[1], ratio)
		}
	}
	// The rejected flow must not get tightness series.
	if strings.Contains(text, `flow="hog"`) {
		t.Error("rejected flow leaked into per-flow gauges")
	}

	// Releasing the flow removes its series on the next scrape.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/flows/cam-1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if text := get(); strings.Contains(text, `flow="cam-1"`) {
		t.Error("released flow's series linger after re-scrape")
	}

	// JSON rendering.
	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("json content type %q", ct)
	}
	var snap []map[string]any
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding JSON metrics: %v", err)
	}
	if len(snap) == 0 {
		t.Error("JSON snapshot is empty")
	}
}

// Scrapes racing admissions and releases share the probe's one report; once
// the registry settles, a scrape shows exactly the flows it holds.
func TestMetricsConcurrentScrapes(t *testing.T) {
	ts := metricsServer(t)
	scrape := func() (string, error) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := scrape(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ids := []string{"s0", "s1", "s2", "s3"}
	for _, id := range ids {
		if _, v := postAdmit(t, ts, flowBody(id, "5 MiB/s")); !v.Admitted {
			t.Errorf("admit %s: %s", id, v.Reason)
		}
	}
	for _, id := range ids[:2] {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/flows/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			continue
		}
		resp.Body.Close()
	}
	wg.Wait()

	text, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[2:] {
		if !strings.Contains(text, `nc_bound_delay_seconds{flow="`+id+`"}`) {
			t.Errorf("held flow %s has no series", id)
		}
	}
	for _, id := range ids[:2] {
		if strings.Contains(text, `flow="`+id+`"`) {
			t.Errorf("released flow %s still has series", id)
		}
	}
}

func TestDecisionsEndpoint(t *testing.T) {
	ts := metricsServer(t)

	if resp, v := postAdmit(t, ts, flowBody("cam-1", "10 MiB/s")); !v.Admitted {
		t.Fatalf("cam-1: status %d, %s", resp.StatusCode, v.Reason)
	}
	postAdmit(t, ts, flowBody("hog", "400 MiB/s"))

	var body struct {
		Depth   int                    `json:"depth"`
		Cap     int                    `json:"cap"`
		Seq     uint64                 `json:"seq"`
		Records []admit.DecisionRecord `json:"records"`
	}
	if code := getJSON(t, ts, "/debug/decisions", &body); code != http.StatusOK {
		t.Fatalf("decisions: status %d", code)
	}
	if body.Depth != 2 || body.Cap != 256 || len(body.Records) != 2 {
		t.Fatalf("depth/cap/records = %d/%d/%d, want 2/256/2", body.Depth, body.Cap, len(body.Records))
	}
	// Newest first: the hog rejection, then the cam-1 admission.
	var cam *admit.DecisionRecord
	for i := range body.Records {
		if body.Records[i].FlowID == "cam-1" {
			cam = &body.Records[i]
		}
	}
	if cam == nil {
		t.Fatalf("no record for cam-1 in %+v", body.Records)
	}
	if cam.Kind != "admit" || !cam.Admitted || cam.Seq == 0 {
		t.Errorf("cam-1 record: %+v", *cam)
	}
	if len(cam.Phases) == 0 {
		t.Errorf("cam-1 record lacks phases: %+v", *cam)
	}
	if want := []string{"encrypt", "ingest", "uplink"}; !reflect.DeepEqual(cam.Nodes, want) {
		t.Errorf("cam-1 record: nodes read %q, want the sorted path %q", cam.Nodes, want)
	}

	// ?n= caps the slice; bad values are 400.
	if code := getJSON(t, ts, "/debug/decisions?n=1", &body); code != http.StatusOK || len(body.Records) != 1 {
		t.Errorf("n=1: status %d, %d records", code, len(body.Records))
	}
	resp, err := http.Get(ts.URL + "/debug/decisions?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("n=bogus: status %d, want 400", resp.StatusCode)
	}

	// The Chrome trace export validates.
	tresp, err := http.Get(ts.URL + "/debug/decisions/trace")
	if err != nil {
		t.Fatal(err)
	}
	traw, err := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d, err %v", tresp.StatusCode, err)
	}
	if err := obs.ValidateTraceBytes(traw); err != nil {
		t.Errorf("trace validation: %v", err)
	}

	// The metrics scrape passes the in-repo exposition linter and carries a
	// decision exemplar in the JSON rendering.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.LintExposition(mraw); len(errs) > 0 {
		t.Errorf("metrics lint: %v", errs)
	}
	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	jraw, err := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jraw), `"decision_seq"`) {
		t.Error("JSON metrics carry no decision_seq exemplar")
	}

	// Healthz grows uptime, decision rate, and recorder occupancy.
	var h struct {
		Uptime   float64  `json:"uptime_seconds"`
		Rate     *float64 `json:"decisions_per_second"`
		Recorder struct {
			Depth int    `json:"depth"`
			Cap   int    `json:"cap"`
			Seq   uint64 `json:"seq"`
		} `json:"recorder"`
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if h.Uptime <= 0 || h.Rate == nil || h.Recorder.Depth != 2 || h.Recorder.Cap != 256 {
		t.Errorf("healthz observability fields: %+v", h)
	}
}

// Without a recorder the debug endpoints 404 so probes can tell "off" from
// "empty".
func TestDecisionsDisabled(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/debug/decisions", "/debug/decisions/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestPprofGating(t *testing.T) {
	pl, err := spec.ParsePlatform([]byte(spec.ExamplePlatform()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := pl.Controller()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		on   bool
		want int
	}{
		{on: false, want: http.StatusNotFound},
		{on: true, want: http.StatusOK},
	} {
		ts := httptest.NewServer(newServer(c, serverOptions{pprof: tc.on}))
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("pprof on=%v: status %d, want %d", tc.on, resp.StatusCode, tc.want)
		}
		ts.Close()
	}
}

func TestRevalidateEndpoint(t *testing.T) {
	ts := testServer(t)

	// Empty platform: trivially sound.
	resp, err := http.Post(ts.URL+"/revalidate", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep revalidateJSON
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Violations != 0 || len(rep.Flows) != 0 {
		t.Fatalf("empty revalidate: status %d, report %+v", resp.StatusCode, rep)
	}

	// Admit two flows, then batch-revalidate with an explicit worker count.
	for _, id := range []string{"r1", "r2"} {
		if resp, v := postAdmit(t, ts, flowBody(id, "10 MiB/s")); !v.Admitted {
			t.Fatalf("admit %s: status %d, %s", id, resp.StatusCode, v.Reason)
		}
	}
	resp, err = http.Post(ts.URL+"/revalidate?workers=2", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rep = revalidateJSON{}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revalidate status %d, report %+v", resp.StatusCode, rep)
	}
	if len(rep.Flows) != 2 || rep.Flows[0].FlowID != "r1" || rep.Flows[1].FlowID != "r2" {
		t.Fatalf("flows = %+v, want r1, r2 in ID order", rep.Flows)
	}
	if rep.Violations != 0 {
		t.Errorf("violations: %+v", rep.Flows)
	}
	for _, fr := range rep.Flows {
		if fr.SimDelayMax == "" || fr.Delay == "" {
			t.Errorf("flow %s: missing bounds/measurements: %+v", fr.FlowID, fr)
		}
	}

	// Bad worker count is a 400.
	resp, err = http.Post(ts.URL+"/revalidate?workers=bogus", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus workers: status %d, want 400", resp.StatusCode)
	}
}
