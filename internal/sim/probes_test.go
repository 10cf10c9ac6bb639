package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// metricsPipeline builds a small two-stage pipeline with stalls and a
// bounded inter-stage queue so every probe family gets exercised.
func metricsPipeline() (*Pipeline, SourceConfig) {
	src := SourceConfig{
		Rate:       1000,
		PacketSize: 100,
		TotalInput: 20000,
	}
	p := New(src, 7).
		Add(StageConfig{
			Name: "fast", MinExec: 10 * time.Millisecond, MaxExec: 20 * time.Millisecond,
			JobIn: 100, JobOut: 100,
		}).
		Add(StageConfig{
			Name: "slow", MinExec: 80 * time.Millisecond, MaxExec: 120 * time.Millisecond,
			JobIn: 100, JobOut: 100, QueueCap: 200,
			StallEvery: 200 * time.Millisecond, StallFor: 50 * time.Millisecond,
		})
	return p, src
}

func TestRunWithMetrics(t *testing.T) {
	p, src := metricsPipeline()
	reg := obs.NewRegistry()
	res, err := p.WithMetrics(reg).Run()
	if err != nil {
		t.Fatal(err)
	}

	if res.Events == 0 {
		t.Error("Result.Events = 0")
	}
	if ev := reg.Counter("nc_sim_events_total", "").Value(); ev != res.Events {
		t.Errorf("nc_sim_events_total = %d, Result.Events = %d", ev, res.Events)
	}
	if got := reg.Gauge("nc_sim_input_bytes", "").Value(); got != float64(src.TotalInput) {
		t.Errorf("nc_sim_input_bytes = %g, want %g", got, float64(src.TotalInput))
	}
	if got := reg.Gauge("nc_sim_output_input_bytes", "").Value(); got != float64(src.TotalInput) {
		t.Errorf("nc_sim_output_input_bytes = %g, want %g (lossless pipeline)", got, float64(src.TotalInput))
	}

	slow := obs.Label{Key: "stage", Value: "slow"}
	jobs := reg.Counter("nc_sim_stage_jobs_total", "", slow).Value()
	if int64(jobs) != res.Stages[1].Jobs {
		t.Errorf("jobs counter = %d, StageResult.Jobs = %d", jobs, res.Stages[1].Jobs)
	}
	soj := reg.Histogram("nc_sim_stage_sojourn_seconds", "", SojournBuckets, slow)
	if int64(soj.Count()) != res.Stages[1].Jobs {
		t.Errorf("sojourn histogram count = %d, want %d", soj.Count(), res.Stages[1].Jobs)
	}
	if stalls := reg.Counter("nc_sim_stage_stalls_total", "", slow).Value(); int64(stalls) != res.Stages[1].Stalls {
		t.Errorf("stalls counter = %d, StageResult.Stalls = %d", stalls, res.Stages[1].Stalls)
	}
	if res.Stages[1].Stalls == 0 {
		t.Error("expected injected stalls in this configuration")
	}
	if bt := reg.Gauge("nc_sim_stage_blocked_seconds", "", obs.Label{Key: "stage", Value: "fast"}).Value(); bt <= 0 {
		t.Error("expected backpressure blocking on the fast stage")
	}

	// The exposition includes the sim families.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"nc_sim_events_total", "nc_sim_stage_sojourn_seconds_bucket", `stage="slow"`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestDelayQuantiles(t *testing.T) {
	p, _ := metricsPipeline()
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DelayP50 <= 0 || res.DelayP99 <= 0 {
		t.Fatalf("quantiles not populated: p50=%v p99=%v", res.DelayP50, res.DelayP99)
	}
	if res.DelayP50 > res.DelayP99 || res.DelayP99 > res.DelayMax {
		t.Errorf("quantile ordering broken: p50=%v p99=%v max=%v", res.DelayP50, res.DelayP99, res.DelayMax)
	}
}

func TestRunWithTraceValidates(t *testing.T) {
	p, _ := metricsPipeline()
	tw := obs.NewTrace()
	res, err := p.WithTrace(tw).Run()
	if err != nil {
		t.Fatal(err)
	}
	if tw.Len() == 0 {
		t.Fatal("trace recorded no events")
	}

	// One complete span per stage activation, plus metadata/instants/counters.
	var spans int64
	var sawStall, sawThreadName bool
	for _, e := range tw.Events() {
		switch {
		case e.Phase == "X" && e.Cat == "stage":
			spans++
		case e.Phase == "i" && e.Name == "stall":
			sawStall = true
		case e.Phase == "M" && e.Name == "thread_name":
			sawThreadName = true
		}
	}
	wantSpans := res.Stages[0].Jobs + res.Stages[1].Jobs
	if spans != wantSpans {
		t.Errorf("stage spans = %d, want %d (total jobs)", spans, wantSpans)
	}
	if !sawStall || !sawThreadName {
		t.Errorf("trace missing stall instants (%v) or thread names (%v)", sawStall, sawThreadName)
	}

	// The exported file is valid Chrome trace_event JSON (the acceptance
	// criterion: loadable in Perfetto).
	path := filepath.Join(t.TempDir(), "sim_trace.json")
	if err := tw.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceBytes(data); err != nil {
		t.Fatalf("exported trace fails schema validation: %v", err)
	}
}

func TestEventCapSurfaced(t *testing.T) {
	p, _ := metricsPipeline()
	reg := obs.NewRegistry()
	res, err := p.WithMetrics(reg).WithMaxEvents(50).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped {
		t.Fatal("Result.Capped not set for a truncated run")
	}
	if res.Events != 50 {
		t.Errorf("Result.Events = %d, want 50", res.Events)
	}
	if hits := reg.Counter("nc_sim_event_cap_total", "").Value(); hits != 1 {
		t.Errorf("nc_sim_event_cap_total = %d, want 1", hits)
	}

	// An uncapped run reports Capped = false.
	p2, _ := metricsPipeline()
	res2, err := p2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Capped {
		t.Error("uncapped run reports Capped")
	}
}

// benchPipeline is a deterministic two-stage pipeline for overhead
// comparison; the workload is identical across variants.
func benchPipeline() *Pipeline {
	src := SourceConfig{Rate: 1e6, PacketSize: 1024, TotalInput: 1024 * units.Bytes(512)}
	return New(src, 1).
		Add(StageConfig{Name: "a", MinExec: time.Microsecond, MaxExec: 2 * time.Microsecond, JobIn: 1024, JobOut: 1024}).
		Add(StageConfig{Name: "b", MinExec: time.Microsecond, MaxExec: 2 * time.Microsecond, JobIn: 2048, JobOut: 2048})
}

// BenchmarkPipelineRun is the detached baseline: telemetry compiled in but
// not attached, so every probe site is a nil check. Compare against
// BenchmarkPipelineRunObserved for the attached cost; the CI bench job
// uploads both in bench_sim.txt.
func BenchmarkPipelineRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchPipeline().Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRunObserved(b *testing.B) {
	reg := obs.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchPipeline().WithMetrics(reg).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
