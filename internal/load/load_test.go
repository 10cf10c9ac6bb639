package load

import (
	"encoding/json"
	"testing"

	"streamcalc/internal/gen"
)

// The ramp registers the whole target on the built-in scenario in batches,
// collapses it into the population's template classes, and reports counts
// that agree with each other and with the controller.
func TestHarnessInProc(t *testing.T) {
	const flows, batch = 2000, 512
	sc := DefaultScenario(flows)
	pop, err := gen.NewPopulation(sc.Spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := sc.Controller()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Pop: pop, Flows: flows}); err == nil {
		t.Fatal("Run without a controller succeeded")
	}
	rep, err := Run(Config{Controller: ctrl, Pop: pop, Flows: flows, BatchSize: batch, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Ramp
	if r.Admitted < flows {
		t.Fatalf("ramp admitted %d < target %d (offered %d)", r.Admitted, flows, r.Offered)
	}
	if r.Admitted+r.Rejected != r.Offered || r.Offered > r.Batches*batch {
		t.Fatalf("ramp counts disagree: %+v", r)
	}
	if rep.Steady.Flows != r.Admitted || rep.Steady.Flows != ctrl.FlowCount() {
		t.Fatalf("steady flows %d, ramp admitted %d, controller holds %d",
			rep.Steady.Flows, r.Admitted, ctrl.FlowCount())
	}
	if rep.Steady.Classes == 0 || rep.Steady.Classes > len(pop.Templates()) {
		t.Fatalf("steady classes %d out of [1, %d]", rep.Steady.Classes, len(pop.Templates()))
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
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
// and every rung's sim replay must respect its promised bounds.
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
}
