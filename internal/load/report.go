package load

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"streamcalc/internal/admit"
)

// LatencyStats summarizes one op kind's measured latencies (exact
// percentiles over every recorded sample, not histogram interpolation).
type LatencyStats struct {
	Count  int `json:"count"`
	Errors int `json:"errors,omitempty"`
	// Misses counts planned ops whose target flow wasn't registered
	// (releases/rechecks of flows the controller had rejected — expected
	// under a planned open-loop schedule) and rejected admissions.
	Misses int           `json:"misses,omitempty"`
	P50    time.Duration `json:"p50_ns"`
	P90    time.Duration `json:"p90_ns"`
	P99    time.Duration `json:"p99_ns"`
	Max    time.Duration `json:"max_ns"`
	Mean   time.Duration `json:"mean_ns"`
}

// summarize computes exact percentile statistics; ns is consumed (sorted in
// place).
func summarize(ns []int64) LatencyStats {
	s := LatencyStats{Count: len(ns)}
	if len(ns) == 0 {
		return s
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	q := func(p float64) time.Duration {
		i := int(p * float64(len(ns)-1))
		return time.Duration(ns[i])
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	s.P50, s.P90, s.P99 = q(0.50), q(0.90), q(0.99)
	s.Max = time.Duration(ns[len(ns)-1])
	s.Mean = time.Duration(sum / int64(len(ns)))
	return s
}

// RampReport covers the bulk-registration phase.
type RampReport struct {
	TargetFlows int           `json:"target_flows"`
	Offered     int           `json:"offered"`
	Admitted    int           `json:"admitted"`
	Rejected    int           `json:"rejected"`
	Batches     int           `json:"batches"`
	BatchSize   int           `json:"batch_size"`
	Duration    time.Duration `json:"duration_ns"`
	FlowsPerSec float64       `json:"flows_per_second"`
}

// ChurnReport covers the paced warmup+measure churn phase.
type ChurnReport struct {
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	WarmupOps   int     `json:"warmup_ops"`
	MeasuredOps int     `json:"measured_ops"`
	// Clients is the number of concurrent issuer lanes the planned schedule
	// was dealt across.
	Clients  int           `json:"clients"`
	Duration time.Duration `json:"duration_ns"`
	// Ops keys are "admit", "release", "recheck".
	Ops map[string]LatencyStats `json:"ops"`
	// Lateness is issue-time minus scheduled-time per measured op: the
	// open-loop pacing debt. A growing tail here means the target (or the
	// harness host) cannot keep up with the offered rate.
	Lateness LatencyStats `json:"lateness"`
	// ClientLateness is each client lane's own pacing debt over the measured
	// window — a single stalled client is visible here next to the aggregate.
	ClientLateness []LatencyStats `json:"client_lateness,omitempty"`
	// Phases summarizes the target's flight-recorder phase breakdown over the
	// admission decisions it retained at the end of the run (keys are the
	// admit phase names: queue_wait, analysis, victim_sweep, ...). Absent
	// when the target has no recorder.
	Phases map[string]LatencyStats `json:"phases,omitempty"`
}

// Report is the full run artifact, JSON-serializable for results/ and CI.
type Report struct {
	Scenario   string        `json:"scenario"`
	Mode       string        `json:"mode"` // "inproc" or "http"
	Seed       uint64        `json:"seed"`
	Workers    int           `json:"workers"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	StartedAt  time.Time     `json:"started_at"`
	Duration   time.Duration `json:"duration_ns"`

	Ramp   RampReport  `json:"ramp"`
	Steady TargetStats `json:"steady"` // snapshot after ramp, before churn
	Churn  ChurnReport `json:"churn"`
	Final  TargetStats `json:"final"` // snapshot after churn
}

// BenchText renders the report as Go benchmark lines parseable by the
// repo's .github/benchjson converter (fields: name, iterations, then
// value/unit pairs) — the bridge into BENCH_admitd.json.
func (r *Report) BenchText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BenchmarkNcloadRamp %d %.0f ns/op %.1f flows-per-sec %d flows %d classes %d heap-bytes\n",
		maxInt(r.Ramp.Offered, 1),
		float64(r.Ramp.Duration.Nanoseconds())/float64(maxInt(r.Ramp.Offered, 1)),
		r.Ramp.FlowsPerSec, r.Steady.Flows, r.Steady.Classes, r.Steady.HeapAlloc)
	for _, kind := range []string{"admit", "release", "recheck"} {
		st, ok := r.Churn.Ops[kind]
		if !ok || st.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "BenchmarkNcloadChurn%s %d %d ns/op %d p50-ns %d p99-ns %d max-ns\n",
			strings.ToUpper(kind[:1])+kind[1:], st.Count,
			st.Mean.Nanoseconds(), st.P50.Nanoseconds(), st.P99.Nanoseconds(), st.Max.Nanoseconds())
	}
	fmt.Fprintf(&b, "BenchmarkNcloadPacing %d %.1f target-rps %.1f achieved-rps %d lateness-p99-ns %d final-flows %d clients\n",
		maxInt(r.Churn.MeasuredOps, 1), r.Churn.TargetRPS, r.Churn.AchievedRPS,
		r.Churn.Lateness.P99.Nanoseconds(), r.Final.Flows, r.Churn.Clients)
	phases := make([]string, 0, len(r.Churn.Phases))
	for p := range r.Churn.Phases {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		st := r.Churn.Phases[p]
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "BenchmarkNcloadPhase%s %d %d ns/op %d p50-ns %d p99-ns %d max-ns\n",
			camelPhase(p), st.Count,
			st.Mean.Nanoseconds(), st.P50.Nanoseconds(), st.P99.Nanoseconds(), st.Max.Nanoseconds())
	}
	return b.String()
}

// PhaseStats aggregates flight-recorder records into per-phase latency
// summaries. Only single-flow admission decisions contribute: batch ramp
// traffic and releases have different phase shapes and would skew the churn
// breakdown.
func PhaseStats(recs []admit.DecisionRecord) map[string]LatencyStats {
	byPhase := map[string][]int64{}
	for _, rec := range recs {
		if rec.Kind != admit.KindAdmit {
			continue
		}
		for _, p := range rec.Phases {
			byPhase[p.Phase] = append(byPhase[p.Phase], int64(p.Dur))
		}
	}
	if len(byPhase) == 0 {
		return nil
	}
	out := make(map[string]LatencyStats, len(byPhase))
	for p, ns := range byPhase {
		out[p] = summarize(ns)
	}
	return out
}

// camelPhase turns a snake_case phase name into the CamelCase suffix of its
// benchmark line ("queue_wait" -> "QueueWait").
func camelPhase(p string) string {
	var b strings.Builder
	up := true
	for _, r := range p {
		if r == '_' {
			up = true
			continue
		}
		if up && 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		up = false
		b.WriteRune(r)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
