package admit

import (
	"bytes"
	"log/slog"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestEnableObsMetrics(t *testing.T) {
	defer curve.SetOpCounter(nil)
	c := testPlatform(t)
	reg := obs.NewRegistry()
	c.EnableObsOpts(reg, ObsOptions{PerNodeMetrics: true})

	if v := c.Admit(tenant("t1", 10*units.MiBPerSec)); !v.Admitted {
		t.Fatalf("expected admission: %s", v.Reason)
	}
	// Same oversized spec twice: the second rejection is served from the
	// epoch-scoped verdict cache (keyed on curves, not IDs).
	c.Admit(tenant("hog", 500*units.MiBPerSec))
	if v := c.Admit(tenant("hog2", 500*units.MiBPerSec)); !v.Cached {
		t.Error("identical rejection at same epoch should be cached")
	}
	if !c.Release("t1") {
		t.Fatal("release failed")
	}

	text := scrape(t, reg)
	for _, want := range []string{
		`nc_admit_verdicts_total{result="admitted"} 1`,
		`nc_admit_verdicts_total{result="rejected"} 2`,
		"nc_admit_cached_total 1",
		"nc_admit_releases_total 1",
		"nc_admit_decision_seconds_count 3",
		`nc_cache_hit_rate{cache="verdict"}`,
		"# TYPE nc_cache_hits_total counter",
		`nc_node_utilization{node="encrypt"}`,
		"nc_admit_epoch",
		"nc_admit_flows 0",
		`nc_curve_ops_total{op="convolve"}`,
		"# TYPE nc_curve_ops_total counter",
		"nc_analysis_seconds_count",
		// 3 admissions + 1 release, all far under the 100ms objective.
		"nc_admit_slo_fast_total 4",
		"nc_admit_slo_objective_seconds 0.1",
		"nc_admit_slo_budget_burn 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if errs := obs.LintExposition([]byte(text)); len(errs) > 0 {
		t.Errorf("exposition lint: %v", errs)
	}
}

// opCount reads nc_curve_ops_total{op} off a scrape of reg.
func opCount(t *testing.T, reg *obs.Registry, op string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^nc_curve_ops_total\{op="` + op + `"\} (\d+)$`).
		FindStringSubmatch(scrape(t, reg))
	if m == nil {
		t.Fatalf("scrape has no nc_curve_ops_total{op=%q}", op)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOpCounterCostContract: attached telemetry costs an operator call one
// increment of a counter resolved at attach time — no allocation — and
// counts every call, repeated operands included. The counter is
// process-wide, so of two controllers on two registries the one attached
// last receives everything.
func TestOpCounterCostContract(t *testing.T) {
	defer curve.SetOpCounter(nil)
	defer core.SetAnalysisTimer(nil)
	beta1, beta2 := curve.RateLatency(100, 0.5), curve.RateLatency(80, 0.2)
	alpha := curve.Affine(10, 5)
	work := func() {
		curve.Convolve(beta1, beta2)
		curve.HDev(alpha, beta1)
	}
	detached := testing.AllocsPerRun(100, work)

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	testPlatform(t).EnableObs(regA)
	if attached := testing.AllocsPerRun(100, work); attached != detached {
		t.Errorf("attached Convolve+HDev allocates %v per run, detached %v", attached, detached)
	}
	conv, hdev := opCount(t, regA, "convolve"), opCount(t, regA, "hdev")
	const calls = 25
	for i := 0; i < calls; i++ {
		work()
	}
	if got := opCount(t, regA, "convolve") - conv; got != calls {
		t.Errorf("%d identical Convolve calls counted %d times", calls, got)
	}
	if got := opCount(t, regA, "hdev") - hdev; got != calls {
		t.Errorf("%d identical HDev calls counted %d times", calls, got)
	}

	testPlatform(t).EnableObs(regB)
	conv = opCount(t, regA, "convolve")
	work()
	if got := opCount(t, regA, "convolve"); got != conv {
		t.Errorf("first registry still counts after a second attach: %d -> %d", conv, got)
	}
	if got := opCount(t, regB, "convolve"); got != 1 {
		t.Errorf("last-attached registry counted %d Convolve calls, want 1", got)
	}
}

// TestObsPerNodeDefaultOff: without the PerNodeMetrics opt-in, a scrape
// carries the platform epoch but no per-node series, and no per-node epoch
// summary.
func TestObsPerNodeDefaultOff(t *testing.T) {
	defer curve.SetOpCounter(nil)
	c := testPlatform(t)
	reg := obs.NewRegistry()
	c.EnableObs(reg)
	c.Admit(tenant("t1", 10*units.MiBPerSec))

	text := scrape(t, reg)
	if strings.Contains(text, "nc_node_") {
		t.Error("per-node series exported without opt-in")
	}
	if !strings.Contains(text, "nc_admit_epoch ") {
		t.Error("scrape missing nc_admit_epoch")
	}
	if strings.Contains(text, "nc_admit_epoch_") {
		t.Error("scrape exports an epoch summary beside nc_admit_epoch")
	}
}

func TestAuditLog(t *testing.T) {
	c := testPlatform(t)
	var buf bytes.Buffer
	c.SetAudit(slog.New(slog.NewTextHandler(&buf, nil)))

	c.Admit(tenant("aud", 10*units.MiBPerSec))
	c.Admit(tenant("hog", 500*units.MiBPerSec))
	c.Release("aud")

	out := buf.String()
	for _, want := range []string{
		"admit.verdict", "flow_id=aud", "admitted=true", "bottleneck=encrypt",
		"flow_id=hog", "admitted=false", "reason=",
		"admit.release", "released=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit log missing %q in:\n%s", want, out)
		}
	}
}

// The bound-tightness gauges come from RevalidateAll: every admitted flow's
// analytic bounds next to its replayed sojourn quantiles and peak backlog.
func TestRevalidateTightnessRatios(t *testing.T) {
	c := testPlatform(t)
	if v := c.Admit(tenant("t1", 10*units.MiBPerSec)); !v.Admitted {
		t.Fatalf("expected admission: %s", v.Reason)
	}
	// A co-resident so the residual service is genuinely degraded.
	if v := c.Admit(tenant("t2", 10*units.MiBPerSec)); !v.Admitted {
		t.Fatalf("expected admission: %s", v.Reason)
	}

	opt := RevalidateOptions{Replay: ReplayOptions{Total: 2 * units.MiB, Seed: 7}, Workers: 1}
	rep, err := c.RevalidateAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flows) != 2 || rep.Flows[0].FlowID != "t1" {
		t.Fatalf("flows = %+v, want t1, t2", rep.Flows)
	}
	fr := rep.Flows[0]
	if fr.SimDelayMax <= 0 || fr.SimMaxBacklog <= 0 {
		t.Fatalf("replay observed nothing: %+v", fr)
	}
	// Soundness: the analytic bound must dominate every observation.
	if r := fr.Delay.Seconds() / fr.SimDelayMax.Seconds(); r < 1 {
		t.Errorf("delay tightness %.3f < 1 (bound %v, observed max %v)", r, fr.Delay, fr.SimDelayMax)
	}
	if r := float64(fr.Backlog) / float64(fr.SimMaxBacklog); r < 1 {
		t.Errorf("backlog tightness %.3f < 1 (bound %v, observed max %v)", r, fr.Backlog, fr.SimMaxBacklog)
	}
	if fr.SimDelayP50 > fr.SimDelayP99 || fr.SimDelayP99 > fr.SimDelayMax {
		t.Errorf("quantiles out of order: p50=%v p99=%v max=%v",
			fr.SimDelayP50, fr.SimDelayP99, fr.SimDelayMax)
	}
	if fr.Capped {
		t.Error("short replay should not hit the event cap")
	}

	// Determinism per seed.
	rep2, err := c.RevalidateAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Errorf("replay not deterministic: %+v vs %+v", rep, rep2)
	}
}
