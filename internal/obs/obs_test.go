package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nc_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same instance.
	if r.Counter("nc_test_total", "a counter") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("nc_test_level", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g, want 1.5", g.Value())
	}

	// Labelled series are distinct.
	a := r.Counter("nc_lbl_total", "", Label{"k", "a"})
	b := r.Counter("nc_lbl_total", "", Label{"k", "b"})
	if a == b {
		t.Error("distinct labels share a series")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("nc_h_seconds", "", []float64{1, 2, 4})

	// Underflow: well below the first bound lands in bucket 0.
	h.Observe(-5)
	h.Observe(0.5)
	// Exact boundary: le semantics, v == bound counts in that bound's bucket.
	h.Observe(1)
	h.Observe(2)
	h.Observe(4)
	// Interior.
	h.Observe(1.5)
	// Just above a boundary.
	h.Observe(math.Nextafter(2, 3))
	// Overflow past every bound, including +Inf and NaN.
	h.Observe(5)
	h.Observe(math.Inf(1))
	h.Observe(math.NaN())

	want := []uint64{3, 2, 2, 3} // buckets le=1, le=2, le=4, +Inf
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 10 {
		t.Errorf("count = %d, want 10", h.Count())
	}
}

func TestHistogramPrometheusCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("nc_h_seconds", "latency", []float64{0.1, 1}, Label{"stage", "gz"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE nc_h_seconds histogram",
		`nc_h_seconds_bucket{stage="gz",le="0.1"} 1`,
		`nc_h_seconds_bucket{stage="gz",le="1"} 2`,
		`nc_h_seconds_bucket{stage="gz",le="+Inf"} 3`,
		`nc_h_seconds_count{stage="gz"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("nc_req_total", "requests", Label{"code", "200"}).Add(7)
	r.Gauge("nc_up", "liveness").Set(1)
	r.GaugeFunc("nc_pull", "pull-style", func() float64 { return 42 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP nc_req_total requests",
		"# TYPE nc_req_total counter",
		`nc_req_total{code="200"} 7`,
		"nc_up 1",
		"nc_pull 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("nc_esc_total", "", Label{"path", `a"b\c` + "\n"}).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `nc_esc_total{path="a\"b\\c\n"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

func TestCollectorAndReset(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.AddCollector(func(reg *Registry) {
		calls++
		reg.ResetFamily("nc_dyn")
		reg.Gauge("nc_dyn", "", Label{"id", "live"}).Set(float64(calls))
	})
	// Pre-seed a series that the collector should reset away.
	r.Gauge("nc_dyn", "", Label{"id", "stale"}).Set(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "stale") {
		t.Errorf("stale series survived ResetFamily:\n%s", out)
	}
	if !strings.Contains(out, `nc_dyn{id="live"} 1`) {
		t.Errorf("collector gauge missing:\n%s", out)
	}
	if calls != 1 {
		t.Errorf("collector ran %d times, want 1", calls)
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("nc_a_total", "help a").Add(3)
	h := r.Histogram("nc_b_seconds", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot families = %d, want 2", len(snap))
	}
	if snap[0].Name != "nc_a_total" || snap[0].Series[0].Value != 3 {
		t.Errorf("counter snapshot wrong: %+v", snap[0])
	}
	hs := snap[1].Series[0]
	if hs.Count != 2 || len(hs.Buckets) != 2 || hs.Buckets[0].Count != 1 || hs.Buckets[1].Count != 1 {
		t.Errorf("histogram snapshot wrong: %+v", hs)
	}

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"le": "+Inf"`) {
		t.Errorf("JSON missing +Inf bucket:\n%s", sb.String())
	}
}

// TestRegistryConcurrent exercises parallel writers and scrapers; run under
// -race (the CI test job does) to catch unsynchronized access.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 2000

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("nc_conc_total", "")
			g := r.Gauge("nc_conc_level", "")
			h := r.Histogram("nc_conc_seconds", "", []float64{0.001, 0.01, 0.1, 1})
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 0.03)
				if i%100 == 0 {
					// Create fresh labelled series concurrently with scrapes.
					r.Counter("nc_conc_lbl_total", "", Label{"w", string(rune('a' + id))}).Inc()
				}
			}
		}(w)
	}
	// Concurrent scrapers.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				r.Snapshot()
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("nc_conc_total", "").Value(); got != writers*perWriter {
		t.Errorf("concurrent counter = %d, want %d", got, writers*perWriter)
	}
	if got := r.Gauge("nc_conc_level", "").Value(); got != writers*perWriter {
		t.Errorf("concurrent gauge = %g, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("nc_conc_seconds", "", []float64{0.001, 0.01, 0.1, 1}).Count(); got != writers*perWriter {
		t.Errorf("concurrent histogram count = %d, want %d", got, writers*perWriter)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > want[i]*1e-12 {
			t.Errorf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("nc_x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as gauge did not panic")
		}
	}()
	r.Gauge("nc_x_total", "")
}
