package admit

import (
	"math"
	"strings"
	"testing"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/units"
)

// testPlatform is a 3-stage edge platform: a fast ingest stage, a slower
// crypto stage (the natural bottleneck), and an uplink.
func testPlatform(t *testing.T) *Controller {
	t.Helper()
	// Jobs are one packet, the grain the tenants deliver, so no node charges
	// a job-fill latency: a JobIn above the upstream grain costs every flow
	// JobIn/rate whatever the cross traffic (core/analysis.go, the grain
	// rule), which for these tenants would dwarf the SLOs under test.
	c, err := New("edge", []core.Node{
		{Name: "ingest", Rate: 200 * units.MiBPerSec, Latency: 200 * time.Microsecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB},
		{Name: "encrypt", Rate: 50 * units.MiBPerSec, Latency: 500 * time.Microsecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB},
		{Name: "uplink", Kind: core.Link, Rate: 120 * units.MiBPerSec, Latency: time.Millisecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func tenant(id string, rate units.Rate) Flow {
	return Flow{
		ID:      id,
		Arrival: core.Arrival{Rate: rate, Burst: 64 * units.KiB, MaxPacket: 4 * units.KiB},
		Path:    []string{"ingest", "encrypt", "uplink"},
		SLO: SLO{
			MaxDelay:      200 * time.Millisecond,
			MaxBacklog:    16 * units.MiB,
			MinThroughput: rate,
		},
	}
}

func TestAdmitWithinCapacity(t *testing.T) {
	c := testPlatform(t)
	v := c.Admit(tenant("t1", 10*units.MiBPerSec))
	if !v.Admitted {
		t.Fatalf("expected admission, got: %s", v.Reason)
	}
	if v.Delay <= 0 || v.Delay > 200*time.Millisecond {
		t.Errorf("promised delay %v outside (0, SLO]", v.Delay)
	}
	if v.Backlog <= 0 || v.Backlog > 16*units.MiB {
		t.Errorf("promised backlog %v outside (0, SLO]", v.Backlog)
	}
	if v.Throughput < 10*units.MiBPerSec {
		t.Errorf("promised throughput %v below SLO", v.Throughput)
	}
	if v.Bottleneck != "encrypt" {
		t.Errorf("bottleneck = %q, want encrypt", v.Bottleneck)
	}
	if !strings.Contains(v.Reason, "admitted") {
		t.Errorf("reason %q lacks explanation", v.Reason)
	}
	if len(c.Flows()) != 1 {
		t.Errorf("registry should hold 1 flow")
	}
}

func TestAdmitRejectsSaturation(t *testing.T) {
	c := testPlatform(t)
	admitted := 0
	var rej Verdict
	for i := 0; i < 6; i++ {
		v := c.Admit(tenant(string(rune('a'+i)), 10*units.MiBPerSec))
		if v.Admitted {
			admitted++
		} else {
			rej = v
			break
		}
	}
	// encrypt serves 50 MiB/s; five 10 MiB/s tenants exhaust it.
	if admitted >= 5 && rej.FlowID == "" {
		t.Fatalf("all 6 tenants admitted over a 50 MiB/s bottleneck")
	}
	if rej.FlowID != "" {
		if rej.Binding != "saturation" && rej.Binding != "min_throughput" {
			t.Errorf("binding = %q, want saturation or min_throughput (reason: %s)", rej.Binding, rej.Reason)
		}
		if !strings.Contains(rej.Reason, "rejected") {
			t.Errorf("reason %q lacks explanation", rej.Reason)
		}
	}
}

func TestAdmitRejectsUnknownNode(t *testing.T) {
	c := testPlatform(t)
	f := tenant("t1", units.MiBPerSec)
	f.Path = []string{"ingest", "gpu"}
	v := c.Admit(f)
	if v.Admitted || v.Binding != "spec" {
		t.Errorf("verdict = %+v, want spec rejection", v)
	}
}

func TestAdmitRejectsDuplicateID(t *testing.T) {
	c := testPlatform(t)
	if v := c.Admit(tenant("t1", units.MiBPerSec)); !v.Admitted {
		t.Fatalf("first admit failed: %s", v.Reason)
	}
	v := c.Admit(tenant("t1", units.MiBPerSec))
	if v.Admitted || v.Binding != "spec" {
		t.Errorf("duplicate ID must be rejected as spec error, got %+v", v)
	}
}

func TestAdmitProtectsVictims(t *testing.T) {
	// Admit a tenant with a delay SLO that just barely holds, then try to
	// add a heavy tenant that would push the first one's bound over.
	probe := testPlatform(t)
	vp := probe.Admit(tenant("a", 10*units.MiBPerSec))
	if !vp.Admitted {
		t.Fatalf("probe admission failed: %s", vp.Reason)
	}

	c := testPlatform(t)
	a := tenant("a", 10*units.MiBPerSec)
	a.SLO.MaxDelay = vp.Delay + vp.Delay/10 // 10% margin over the uncontended bound
	if v := c.Admit(a); !v.Admitted {
		t.Fatalf("tight-SLO admission failed: %s", v.Reason)
	}

	b := tenant("b", 30*units.MiBPerSec)
	b.SLO = SLO{} // b itself is unconstrained; it must still not hurt a
	v := c.Admit(b)
	if v.Admitted {
		t.Fatalf("heavy tenant admitted although it breaks a's delay SLO")
	}
	if v.Binding != "victim:a" {
		t.Errorf("binding = %q, want victim:a (reason: %s)", v.Binding, v.Reason)
	}
	if !strings.Contains(v.Reason, `"a"`) {
		t.Errorf("reason %q does not name the victim", v.Reason)
	}

	// On an empty platform the same tenant is fine.
	fresh := testPlatform(t)
	if v := fresh.Admit(b); !v.Admitted {
		t.Errorf("heavy tenant alone should be admissible: %s", v.Reason)
	}
}

func TestResidualShrinksAndRecovers(t *testing.T) {
	c := testPlatform(t)
	before, err := c.ResidualService("encrypt")
	if err != nil {
		t.Fatal(err)
	}
	if before.Rate != 50*units.MiBPerSec {
		t.Fatalf("pristine residual rate = %v", before.Rate)
	}

	if v := c.Admit(tenant("t1", 10*units.MiBPerSec)); !v.Admitted {
		t.Fatalf("admit failed: %s", v.Reason)
	}
	during, err := c.ResidualService("encrypt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(during.Rate), float64(40*units.MiBPerSec); got > want*1.0000001 || got < want*0.9999999 {
		t.Errorf("residual rate after admit = %v, want ~%v", during.Rate, units.Rate(want))
	}
	if len(during.Flows) != 1 || during.Flows[0] != "t1" {
		t.Errorf("hosted flows = %v", during.Flows)
	}
	if during.Latency <= before.Latency {
		t.Errorf("residual latency must grow under cross traffic")
	}

	if !c.Release("t1") {
		t.Fatal("release failed")
	}
	after, err := c.ResidualService("encrypt")
	if err != nil {
		t.Fatal(err)
	}
	if after.Rate != before.Rate || after.Latency != before.Latency {
		t.Errorf("residual after release = %v·[t - %v]⁺, want pristine %v·[t - %v]⁺",
			after.Rate, after.Latency, before.Rate, before.Latency)
	}
}

// Reservations are a deterministic function of (flow, platform), so any
// admission/release interleaving that ends with the same admitted set
// yields identical residual state.
func TestBookkeepingOrderIndependent(t *testing.T) {
	flows := []Flow{
		tenant("a", 5*units.MiBPerSec),
		tenant("b", 7*units.MiBPerSec),
		tenant("c", 3*units.MiBPerSec),
	}

	c1 := testPlatform(t)
	for _, f := range flows {
		if v := c1.Admit(f); !v.Admitted {
			t.Fatalf("c1 admit %s: %s", f.ID, v.Reason)
		}
	}
	c1.Release("b")

	c2 := testPlatform(t)
	if v := c2.Admit(flows[2]); !v.Admitted { // c first, then a
		t.Fatalf("c2 admit c: %s", v.Reason)
	}
	if v := c2.Admit(flows[0]); !v.Admitted {
		t.Fatalf("c2 admit a: %s", v.Reason)
	}

	for _, node := range c1.NodeNames() {
		r1, err1 := c1.ResidualService(node)
		r2, err2 := c2.ResidualService(node)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Rate != r2.Rate || r1.Latency != r2.Latency {
			t.Errorf("node %s: residuals differ: %v·[t - %v]⁺ vs %v·[t - %v]⁺", node, r1.Rate, r1.Latency, r2.Rate, r2.Latency)
		}
		if r1.Cross != r2.Cross {
			t.Errorf("node %s: aggregates differ: %+v vs %+v", node, r1.Cross, r2.Cross)
		}
	}
}

// TestRepeatedRefusal: a refused spec offered again, under another ID and
// with nothing committed in between, gets the same verdict; a commit and a
// release each step the epoch once, and the refusal carries the new one.
func TestRepeatedRefusal(t *testing.T) {
	c := testPlatform(t)
	bad := tenant("big", 500*units.MiBPerSec)
	v1 := c.Admit(bad)
	if v1.Admitted {
		t.Fatalf("first verdict: %+v", v1)
	}
	v2 := c.Admit(tenant("big2", 500*units.MiBPerSec))
	if v2.FlowID != "big2" {
		t.Errorf("second verdict answers %q, want big2", v2.FlowID)
	}
	v2.FlowID = v1.FlowID
	if v2 != v1 {
		t.Errorf("repeated refusal differs:\nfirst  %+v\nsecond %+v", v1, v2)
	}

	e := c.Epoch()
	if v := c.Admit(tenant("t1", units.MiBPerSec)); !v.Admitted {
		t.Fatalf("admit failed: %s", v.Reason)
	}
	if c.Epoch() != e+1 {
		t.Errorf("epoch = %d, want %d", c.Epoch(), e+1)
	}
	if v := c.Admit(bad); v.Admitted || v.Epoch != e+1 {
		t.Errorf("after a commit: %+v, want a refusal at epoch %d", v, e+1)
	}

	c.Release("t1")
	if c.Epoch() != e+2 {
		t.Errorf("epoch after release = %d, want %d", c.Epoch(), e+2)
	}
	if v := c.Admit(bad); v.Admitted || v.Epoch != e+2 {
		t.Errorf("after a release: %+v, want a refusal at epoch %d", v, e+2)
	}
}

func TestReleaseUnknownFlow(t *testing.T) {
	c := testPlatform(t)
	if c.Release("ghost") {
		t.Error("releasing an unknown flow must report false")
	}
	if c.Epoch() != 0 {
		t.Error("failed release must not bump the epoch")
	}
}

func TestReAdmitAfterRelease(t *testing.T) {
	c := testPlatform(t)
	f := tenant("t1", 10*units.MiBPerSec)
	v1 := c.Admit(f)
	if !v1.Admitted {
		t.Fatalf("admit: %s", v1.Reason)
	}
	c.Release("t1")
	v2 := c.Admit(f)
	if !v2.Admitted {
		t.Fatalf("re-admit: %s", v2.Reason)
	}
	if v1.Delay != v2.Delay || v1.Backlog != v2.Backlog {
		t.Errorf("re-admission on the emptied platform must promise the same bounds: %+v vs %+v", v1, v2)
	}
}

func TestResidualUnknownNode(t *testing.T) {
	c := testPlatform(t)
	if _, err := c.ResidualService("gpu"); err == nil {
		t.Error("expected error for unknown node")
	}
}

func TestResidualStarvedReporting(t *testing.T) {
	// A node whose static background cross traffic nearly saturates it:
	// reservations can push it into starvation only through Admit, which
	// rejects first — but the Residual report must still handle the
	// starved shape when background + reservations meet the rate.
	c, err := New("tight", []core.Node{
		{Name: "n", Rate: 10, CrossRate: 9.5, JobIn: 1, JobOut: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.ResidualService("n")
	if err != nil {
		t.Fatal(err)
	}
	if r.Starved {
		t.Fatal("0.5 B/s of residual rate is not starvation")
	}
	if got := r.Rate; got <= 0 || got > 0.5000001 {
		t.Errorf("residual rate = %v, want 0.5", got)
	}
}

func TestNewRejectsBadPlatforms(t *testing.T) {
	if _, err := New("p", nil); err == nil {
		t.Error("empty platform must fail")
	}
	if _, err := New("p", []core.Node{{Rate: 1, JobIn: 1, JobOut: 1}}); err == nil {
		t.Error("unnamed node must fail")
	}
	if _, err := New("p", []core.Node{
		{Name: "n", Rate: 1, JobIn: 1, JobOut: 1},
		{Name: "n", Rate: 1, JobIn: 1, JobOut: 1},
	}); err == nil {
		t.Error("duplicate names must fail")
	}
	if _, err := New("p", []core.Node{{Name: "n", Rate: -1, JobIn: 1, JobOut: 1}}); err == nil {
		t.Error("invalid node must fail")
	}
}

// The residual reported for a node, in scalars, is the curve the curve
// engine builds from the pristine service minus all reservations.
func TestResidualMatchesCurveAlgebra(t *testing.T) {
	c := testPlatform(t)
	for _, id := range []string{"a", "b"} {
		if v := c.Admit(tenant(id, 8*units.MiBPerSec)); !v.Admitted {
			t.Fatalf("admit %s: %s", id, v.Reason)
		}
	}
	r, err := c.ResidualService("encrypt")
	if err != nil {
		t.Fatal(err)
	}
	beta := curve.RateLatency(float64(50*units.MiBPerSec), 500e-6)
	want, ok := curve.ResidualService(beta, curve.Affine(float64(r.Cross.Rate), float64(r.Cross.Burst)))
	if !ok {
		t.Fatal("unexpected starvation")
	}
	if r.Starved || float64(r.Rate) != want.UltimateSlope() || math.Abs(r.Latency-want.Latency()) > 1e-15 {
		t.Errorf("residual = %v·[t - %v]⁺, want %v", r.Rate, r.Latency, want)
	}
}

// Regression: a finite delay bound beyond the ~292 years a time.Duration
// holds used to wrap negative and pass any max_delay. The slow-platform
// repro, then the same question from 1 B/s to 100 GB/s with bursts draining
// in microseconds to far past the Duration range: a bound above the SLO is
// refused with max_delay binding, and no verdict carries a negative delay.
func TestDelayBoundNeverWraps(t *testing.T) {
	slow, err := New("slow", []core.Node{{Name: "s", Rate: 10, Latency: time.Second, JobIn: 1, JobOut: 1}})
	if err != nil {
		t.Fatal(err)
	}
	v := slow.Admit(Flow{ID: "x", Arrival: core.Arrival{Rate: 1, Burst: 2e11, MaxPacket: 1},
		Path: []string{"s"}, SLO: SLO{MaxDelay: time.Second}})
	if v.Admitted || v.Binding != "max_delay" || v.Delay < 0 || strings.Contains(v.Reason, "delay bound -") {
		t.Fatalf("2e11 B burst on a 10 B/s node against max_delay 1s: %+v", v)
	}

	for _, rate := range []float64{1, 1e3, 1e6, 1e9, 1e11} { // node rate, B/s
		c, err := New("mag", []core.Node{{Name: "s", Rate: units.Rate(rate), Latency: time.Millisecond, JobIn: 1, JobOut: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for i, drain := range []float64{1e-6, 1e-3, 10, 1e6, 9e9, 1e10, 1e13, 1e18} { // burst / rate, s
			f := Flow{ID: "f", Arrival: core.Arrival{Rate: units.Rate(rate / 10), Burst: units.Bytes(rate * drain)},
				Path: []string{"s"}, SLO: SLO{MaxDelay: time.Second}}
			v := c.Admit(f)
			if v.Delay < 0 || strings.Contains(v.Reason, "delay bound -") || strings.Contains(v.Reason, "delay -") {
				t.Errorf("rate %g B/s, burst drains in %g s: negative delay in %+v", rate, drain, v)
			}
			if want := drain < 0.5; v.Admitted != want || (!want && v.Binding != "max_delay") {
				t.Errorf("rate %g B/s, burst drains in %g s (case %d): admitted=%v binding=%q, want admitted=%v; %s",
					rate, drain, i, v.Admitted, v.Binding, want, v.Reason)
			}
			c.Release("f")
		}
	}
}
