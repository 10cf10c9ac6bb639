package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"streamcalc/internal/admit"
	"streamcalc/internal/spec"
	"streamcalc/internal/units"
)

var updateBodies = flag.Bool("update", false, "rewrite testdata/bodies.json from the current responses")

// wireStep is one request of TestAPIBodiesAreCompact and the body it got.
type wireStep struct {
	name, method, path, body string
	status                   int
	got                      []byte
}

// wireSteps drives every JSON route of a fresh example-platform daemon once:
// admit 200 and 409, a batch with an intra-batch duplicate, a recheck and a
// 404 error, the registry, a residual, a revalidation, /healthz and the
// flight recorder.
func wireSteps(t *testing.T) []wireStep {
	t.Helper()
	pl, err := spec.ParsePlatform([]byte(spec.ExamplePlatform()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := pl.Controller()
	if err != nil {
		t.Fatal(err)
	}
	c.EnableFlightRecorder(16)
	ts := httptest.NewServer(newServer(c, serverOptions{
		replay: admit.ReplayOptions{Total: 256 * units.KiB, Seed: 1},
	}))
	defer ts.Close()
	steps := []wireStep{
		{name: "admit", method: "POST", path: "/admit", body: flowBody("cam-1", "10 MiB/s"), status: 200},
		{name: "admit refused", method: "POST", path: "/admit", body: flowBody("hog", "400 MiB/s"), status: 409},
		{name: "batch", method: "POST", path: "/admit/batch", status: 200,
			body: "[" + flowBody("b-1", "5 MiB/s") + "," + flowBody("b-2", "7 MiB/s") + "," + flowBody("b-1", "5 MiB/s") + "]"},
		{name: "recheck", method: "GET", path: "/flows/cam-1/recheck", status: 200},
		{name: "recheck unknown", method: "GET", path: "/flows/ghost/recheck", status: 404},
		{name: "flows", method: "GET", path: "/flows", status: 200},
		{name: "residual", method: "GET", path: "/nodes/encrypt/residual", status: 200},
		{name: "revalidate", method: "POST", path: "/revalidate?workers=1", status: 200},
		{name: "healthz", method: "GET", path: "/healthz", status: 200},
		{name: "decisions", method: "GET", path: "/debug/decisions", status: 200},
	}
	for i := range steps {
		s := &steps[i]
		req, err := http.NewRequest(s.method, ts.URL+s.path, strings.NewReader(s.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		s.got, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != s.status {
			t.Errorf("%s: status %d, want %d: %s", s.name, resp.StatusCode, s.status, s.got)
		}
	}
	return steps
}

// TestAPIBodiesAreCompact checks that every JSON route answers one line of
// compact JSON and a newline, carrying what the daemon answered when it
// indented its responses. testdata/bodies.json holds those indented bodies.
// Where a body is deterministic it must be their compacted bytes exactly;
// /healthz and /debug/decisions carry clocks and heap figures, so there the
// keys must match.
func TestAPIBodiesAreCompact(t *testing.T) {
	steps := wireSteps(t)
	if *updateBodies {
		out := map[string]json.RawMessage{}
		for _, s := range steps {
			out[s.name] = s.got
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/bodies.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("testdata/bodies.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		body, ok := bytes.CutSuffix(s.got, []byte("\n"))
		if !ok || bytes.ContainsAny(body, "\n") {
			t.Errorf("%s: body is not one line ending in a newline: %q", s.name, s.got)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Errorf("%s: %v", s.name, err)
			continue
		}
		if !bytes.Equal(compact.Bytes(), body) {
			t.Errorf("%s: body carries whitespace:\n%s", s.name, body)
		}
		w, ok := want[s.name]
		if !ok {
			t.Errorf("%s: no recorded body", s.name)
			continue
		}
		switch s.name {
		case "healthz", "decisions":
			if g, w := jsonKeys(t, body), jsonKeys(t, w); !reflect.DeepEqual(g, w) {
				t.Errorf("%s: keys %q, want %q", s.name, g, w)
			}
		default:
			var wc bytes.Buffer
			if err := json.Compact(&wc, w); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, wc.Bytes()) {
				t.Errorf("%s:\n got %s\nwant %s", s.name, body, wc.Bytes())
			}
		}
	}
}

// jsonKeys is the sorted set of object keys anywhere in doc, each with the
// path of keys above it.
func jsonKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				seen[prefix+k] = true
				walk(prefix+k+".", x)
			}
		case []any:
			for _, x := range v {
				walk(prefix, x)
			}
		}
	}
	walk("", v)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// batchHandlerFlows is the size of BenchmarkBatchHandler's body, the
// batch size of the bulk_ramp workload.
const batchHandlerFlows = 4096

// batchHandlerInput is a platform and one POST /admit/batch body of
// batchHandlerFlows flows drawn from 64 seeded classes, with the nodes sized
// at three times the demand so that nearly every flow is admitted, as on a
// bulk ramp.
func batchHandlerInput() (platform, body []byte) {
	rng := rand.New(rand.NewSource(1))
	paths := []string{`["ingest","encrypt","uplink"]`, `["ingest","uplink"]`}
	type class struct {
		rate, burst float64
		path        int
		delay       string
	}
	classes := make([]class, 64)
	for i := range classes {
		classes[i] = class{
			rate:  math.Round(64 * 1024 * math.Pow(64, rng.Float64())),
			burst: math.Round(16 * 1024 * math.Pow(16, rng.Float64())),
			path:  rng.Intn(len(paths)),
			delay: []string{"1s", "500ms", "300ms"}[rng.Intn(3)],
		}
	}
	demand := map[string]float64{}
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < batchHandlerFlows; i++ {
		c := classes[rng.Intn(len(classes))]
		demand["ingest"] += c.rate
		demand["uplink"] += c.rate
		if c.path == 0 {
			demand["encrypt"] += c.rate
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":"f%d","arrival":{"rate":"%.0f","burst":"%.0f","max_packet":"1500"},"path":%s,"slo":{"max_delay":%q}}`,
			i, c.rate, c.burst, paths[c.path], c.delay)
	}
	b.WriteByte(']')
	platform = fmt.Appendf(nil, `{"name":"bulk","nodes":[`+
		`{"name":"ingest","rate":"%.0f","latency":"200us","job_in":"1500","job_out":"1500","max_packet":"1500"},`+
		`{"name":"encrypt","rate":"%.0f","latency":"500us","job_in":"1500","job_out":"1500","max_packet":"1500"},`+
		`{"name":"uplink","kind":"link","rate":"%.0f","latency":"1ms","job_in":"1500","job_out":"1500","max_packet":"1500"}]}`,
		3*demand["ingest"], 3*demand["encrypt"], 3*demand["uplink"])
	return platform, b.Bytes()
}

// BenchmarkBatchHandler is one bulk_ramp request in process: a seeded
// 4096-flow POST /admit/batch through newServer on a fresh controller, from
// the body read to the last verdict encoded. To split it into parse,
// AdmitBatch and encode:
//
//	go test -run xxx -bench BatchHandler -benchmem -cpuprofile cpu.out ./cmd/ncadmitd/
//	go tool pprof -top -cum -focus 'ncadmitd.newServer' cpu.out | grep -E 'ParseFlows|AdmitBatch|writeJSON'
func BenchmarkBatchHandler(b *testing.B) {
	platform, body := batchHandlerInput()
	pl, err := spec.ParsePlatform(platform)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	admitted := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := pl.Controller()
		if err != nil {
			b.Fatal(err)
		}
		h := newServer(c, serverOptions{})
		req := httptest.NewRequest("POST", "/admit/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		b.StartTimer()
		h.ServeHTTP(w, req)
		b.StopTimer()
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
		admitted = c.FlowCount()
	}
	b.ReportMetric(float64(admitted), "admitted")
}
