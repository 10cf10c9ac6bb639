package spec

import (
	"testing"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

func TestExamplePlatformBuildsController(t *testing.T) {
	p, err := ParsePlatform([]byte(ExamplePlatform()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Controller()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NodeNames(); len(got) != 3 || got[1] != "encrypt" {
		t.Errorf("node names = %v", got)
	}
}

func TestExampleTraceReplays(t *testing.T) {
	p, err := ParsePlatform([]byte(ExamplePlatform()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Controller()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := ParseTrace([]byte(ExampleTrace()))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := TraceOps(wire)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := admit.Replay(c, ops, admit.ReplayOptions{Total: 2 * units.MiB, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 3 || rep.Rejected != 1 {
		t.Errorf("admitted/rejected = %d/%d, want 3/1", rep.Admitted, rep.Rejected)
	}
	if rep.Violations != 0 {
		for _, s := range rep.Steps {
			for _, v := range s.Violations {
				t.Errorf("step %d: %s", s.Index, v)
			}
		}
	}
}

// Replay judges each admission against bounds recomputed right after the
// commit. They must equal the decision's own bounds at every rung: the
// recheck analyses the same pipeline the decision did.
func TestReplayRecomputedBoundsMatchVerdict(t *testing.T) {
	wire, err := ParseTrace([]byte(ExampleTrace()))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := TraceOps(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []core.Rung{core.RungBlind, core.RungFIFO, core.RungTight} {
		p, err := ParsePlatform([]byte(ExamplePlatform()))
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Controller()
		if err != nil {
			t.Fatal(err)
		}
		c.SetRung(r)
		rep, err := admit.Replay(c, ops, admit.ReplayOptions{Total: units.MiB, Seed: 1})
		if err != nil {
			t.Fatalf("rung %v: %v", r, err)
		}
		if rep.Admitted == 0 {
			t.Fatalf("rung %v: nothing admitted", r)
		}
		for _, s := range rep.Steps {
			if !s.Verdict.Admitted {
				continue
			}
			fr, v := s.Revalidation, s.Verdict
			if fr.Delay != v.Delay || fr.Backlog != v.Backlog || fr.Throughput != v.Throughput {
				t.Errorf("rung %v step %d (%s): recomputed %v/%v/%v, verdict %v/%v/%v", r, s.Index, s.FlowID,
					fr.Delay, fr.Backlog, fr.Throughput, v.Delay, v.Backlog, v.Throughput)
			}
		}
	}
}

func TestFlowAdmitConversion(t *testing.T) {
	fl, err := ParseFlow([]byte(`{
		"id": "t", "arrival": {"rate": "10 MiB/s", "burst": "64 KiB", "max_packet": "4 KiB",
			"extra": [{"rate": "5 MiB/s", "burst": "128 KiB"}]},
		"path": ["a", "b"],
		"slo": {"max_delay": "20ms", "max_backlog": "1 MiB", "min_throughput": "10 MiB/s"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	af, err := fl.Admit()
	if err != nil {
		t.Fatal(err)
	}
	if af.ID != "t" || len(af.Path) != 2 || len(af.Arrival.Extra) != 1 {
		t.Errorf("converted flow = %+v", af)
	}
	if af.SLO.MaxDelay != 20*time.Millisecond || af.SLO.MaxBacklog != units.MiB {
		t.Errorf("converted SLO = %+v", af.SLO)
	}

	fl.SLO.MaxDelay = "bogus"
	if _, err := fl.Admit(); err == nil {
		t.Error("bad max_delay must error")
	}
}
