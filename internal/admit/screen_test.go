package admit_test

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/gen"
	"streamcalc/internal/load"
	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// recheckAll re-runs the exact analysis of every admitted flow — Recheck
// builds the pipeline a decision's check would have built and bounds it with
// core.Bound, and a tight class also at its stored θ-vector — and requires
// its SLO to hold. A victim the closed-form screen cleared wrongly shows up
// here as "recheck violated", at the step that admitted over it.
func recheckAll(t *testing.T, c *admit.Controller, step string) {
	t.Helper()
	for _, af := range c.Flows() {
		v, err := c.Recheck(af.Flow.ID)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !v.Admitted {
			t.Errorf("%s: flow %s: %s", step, af.Flow.ID, v.Reason)
		}
	}
}

// A 64-class population churning on a platform sized so tightly that the
// strictest tier is refused at the margin: some victims sit far from their
// SLO and are screened, some sit close and are analysed, and after every
// step every admitted flow still passes the exact analysis.
func TestScreenedChurnKeepsEveryPromise(t *testing.T) {
	const flows, steps = 640, 250
	sc := load.DefaultScenario(flows)
	pop, err := gen.NewPopulation(sc.Spec, 25)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sc.Sized(pop, flows, 1.15).Controller()
	if err != nil {
		t.Fatal(err)
	}
	rec := c.EnableFlightRecorder(flows + steps)

	for lo := 0; lo < flows; lo += flows / 4 {
		c.AdmitBatch(pop.Flows(lo, lo+flows/4))
		recheckAll(t, c, fmt.Sprintf("batch@%d", lo))
	}
	var refusedForVictim int
	for i, op := range pop.PlanOps(flows, steps) {
		switch op.Kind {
		case gen.OpAdmit:
			if v := c.Admit(op.Flow); strings.HasPrefix(v.Binding, "victim:") {
				refusedForVictim++
			}
		case gen.OpRelease:
			c.Release(op.ID)
		}
		recheckAll(t, c, fmt.Sprintf("op %d (%s)", i, op.Kind))
	}

	var checked, screened int
	for _, r := range rec.Snapshot(0) {
		checked += r.VictimsChecked
		screened += r.VictimsScreened
	}
	t.Logf("%d classes, %d flows; victims considered %d, screened %d, analysed %d; %d admits refused for a victim",
		c.ClassCount(), c.FlowCount(), checked, screened, checked-screened, refusedForVictim)
	if screened == 0 || screened == checked {
		t.Errorf("victims considered %d, screened %d: the churn must exercise both the screen and the fall-through", checked, screened)
	}
}

// A platform node with a 1 ns latency used to turn every admission through
// it into "rejected: internal error" (the node's service curve panicked in
// construction). Flows are admitted through it at every rung, next to
// co-resident classes, screened and analysed alike.
func TestAdmitThroughOneNanosecondNode(t *testing.T) {
	for _, rung := range core.Rungs() {
		c, err := admit.New("ns", []core.Node{
			{Name: "wire", Rate: units.GiBPerSec, Latency: time.Nanosecond, JobIn: 1500, JobOut: 1500, MaxPacket: 1500},
			{Name: "core", Rate: 200 * units.MiBPerSec, Latency: 100 * time.Microsecond, JobIn: 1500, JobOut: 1500, MaxPacket: 1500},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.SetRung(rung)
		for i, slo := range []admit.SLO{{MaxDelay: 500 * time.Millisecond}, {MaxDelay: 5 * time.Millisecond}, {}} {
			f := admit.Flow{
				ID:      fmt.Sprintf("f%d", i),
				Arrival: core.Arrival{Rate: 10 * units.MiBPerSec, Burst: 16 * units.KiB, MaxPacket: 1500},
				Path:    []string{"wire", "core"}, SLO: slo,
			}
			if v := c.Admit(f); !v.Admitted {
				t.Errorf("%v: flow %s: %s", rung, f.ID, v.Reason)
			}
		}
		recheckAll(t, c, rung.String())
	}
}

// A victim far from its SLO is screened, one whose SLO sits just above its
// bound is analysed, and the decision record, the audit line and /metrics all
// say which happened.
func TestScreenedVictimsAreCounted(t *testing.T) {
	c := goldenPlatform(t, core.RungBlind)
	reg := obs.NewRegistry()
	c.EnableObs(reg)
	rec := c.EnableFlightRecorder(8)
	var audit bytes.Buffer
	c.SetAudit(slog.New(slog.NewTextHandler(&audit, nil)))

	flow := func(id string, rate units.Rate, maxDelay time.Duration) admit.Flow {
		return admit.Flow{ID: id, Path: []string{"ingest", "transcode", "egress"},
			Arrival: core.Arrival{Rate: rate, Burst: 16 * units.KiB, MaxPacket: 1500},
			SLO:     admit.SLO{MaxDelay: maxDelay}}
	}
	loose := c.Admit(flow("loose", units.MiBPerSec, 400*time.Millisecond))
	if !loose.Admitted {
		t.Fatal(loose.Reason)
	}
	// Learn what "near" bounds under both co-residents, then ask for barely more.
	probe := c.Admit(flow("probe", 2*units.MiBPerSec, 0))
	c.Admit(flow("other", 3*units.MiBPerSec, 400*time.Millisecond))
	near, err := c.Recheck("probe")
	if err != nil || !probe.Admitted {
		t.Fatal(probe.Reason, err)
	}
	c.Release("probe")
	c.Release("other")
	if v := c.Admit(flow("near", 2*units.MiBPerSec, near.Delay+near.Delay/1000)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	audit.Reset()
	if v := c.Admit(flow("other", 3*units.MiBPerSec, 400*time.Millisecond)); !v.Admitted {
		t.Fatal(v.Reason)
	}

	last := rec.Snapshot(1)[0]
	if last.FlowID != "other" || last.VictimsChecked != 2 || last.VictimsScreened != 1 {
		t.Errorf("record %+v: want 2 victims considered, 1 screened", last)
	}
	if !strings.Contains(audit.String(), "victims_screened=1") {
		t.Errorf("audit line lacks victims_screened=1:\n%s", audit.String())
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	// loose was screened for probe, other, near and other again; probe, which
	// has no SLO to miss, for the first other.
	if want := "\nnc_admit_victims_screened_total 5\n"; !strings.Contains(text.String(), want) {
		t.Errorf("scrape lacks %q", want)
	}
	if errs := obs.LintExposition(text.Bytes()); len(errs) > 0 {
		t.Errorf("exposition lint: %v", errs)
	}
	recheckAll(t, c, "end")
}
