package admit

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// sharedNodePlatform is a single node with static background cross traffic,
// the canonical shape where the FIFO rungs are strictly tighter than blind:
// blind residual RL(6, 13/6) gives delay 2+1/6 s for an (2,1) arrival, the
// FIFO family collapses it to theta* = 1.3 s.
func sharedNodePlatform(t *testing.T) *Controller {
	t.Helper()
	c, err := New("shared", []core.Node{{
		Name: "s", Rate: 10, Latency: time.Second,
		JobIn: 1, JobOut: 1,
		CrossRate: 4, CrossBurst: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func rungTenant(id string, r core.Rung, maxDelay time.Duration) Flow {
	return Flow{
		ID: id,
		// MaxPacket matches the node job size so the replay's packetized
		// source is covered by the analytic envelope.
		Arrival: core.Arrival{Rate: 2, Burst: 1, MaxPacket: 1},
		Path:    []string{"s"},
		SLO:     SLO{MaxDelay: maxDelay},
		Rung:    r,
	}
}

// rungBound learns the promised delay of the canonical tenant at one rung
// on a fresh platform (no SLO, so the admission always succeeds).
func rungBound(t *testing.T, r core.Rung) time.Duration {
	t.Helper()
	c := sharedNodePlatform(t)
	v := c.Admit(rungTenant("probe", r, 0))
	if !v.Admitted {
		t.Fatalf("rung %v probe rejected: %s", r, v.Reason)
	}
	return v.Delay
}

// An SLO between the blind bound and the FIFO bound: blind must reject, the
// tighter rungs must admit — the ladder is a real admission knob, not just
// a reporting field.
func TestRungAdmitsWhereBlindRejects(t *testing.T) {
	dBlind := rungBound(t, core.RungBlind)
	dFIFO := rungBound(t, core.RungFIFO)
	dTight := rungBound(t, core.RungTight)
	if dFIFO >= dBlind || dTight > dFIFO {
		t.Fatalf("ladder not improving: blind %v fifo %v tight %v", dBlind, dFIFO, dTight)
	}
	slo := (dBlind + dFIFO) / 2
	for _, r := range []core.Rung{core.RungFIFO, core.RungTight} {
		c := sharedNodePlatform(t)
		vb := c.Admit(rungTenant("blind-flow", core.RungBlind, slo))
		if vb.Admitted {
			t.Fatalf("blind rung admitted past its bound: %s", vb.Reason)
		}
		if vb.Binding != "max_delay" || vb.Rung != "blind" {
			t.Errorf("blind rejection: binding=%q rung=%q", vb.Binding, vb.Rung)
		}
		v := c.Admit(rungTenant("tight-flow", r, slo))
		if !v.Admitted {
			t.Fatalf("rung %v rejected an admissible flow: %s", r, v.Reason)
		}
		if v.Rung != r.String() {
			t.Errorf("verdict rung = %q, want %q", v.Rung, r)
		}
		if v.Delay > slo || v.Delay <= 0 {
			t.Errorf("rung %v promised delay %v outside (0, %v]", r, v.Delay, slo)
		}
	}
}

// The controller-wide default applies to flows that do not carry their own
// rung, and a per-flow override beats it in both directions.
func TestRungControllerDefaultAndOverride(t *testing.T) {
	slo := (rungBound(t, core.RungBlind) + rungBound(t, core.RungFIFO)) / 2
	c := sharedNodePlatform(t)
	c.SetRung(core.RungFIFO)
	if c.DefaultRung() != core.RungFIFO {
		t.Fatalf("DefaultRung = %v", c.DefaultRung())
	}
	if v := c.Admit(rungTenant("deflt", core.RungDefault, slo)); !v.Admitted || v.Rung != "fifo" {
		t.Fatalf("default-rung flow: admitted=%v rung=%q (%s)", v.Admitted, v.Rung, v.Reason)
	}
	if v := c.Admit(rungTenant("force-blind", core.RungBlind, slo)); v.Admitted {
		t.Fatalf("blind override not honored: %s", v.Reason)
	}
}

// Capacity acceptance: filling one shared node with identical delay-SLO
// tenants, the tight rung must admit strictly more flows than blind. Every
// admitted flow's promise is then revalidated by sim replay at its residual
// service — more admissions, still zero violations.
func TestRungTightAdmitsMoreFlows(t *testing.T) {
	fill := func(r core.Rung) (int, *Controller) {
		c, err := New("cap", []core.Node{{
			Name: "s", Rate: 100, Latency: 100 * time.Millisecond,
			JobIn: 1, JobOut: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		c.SetRung(r)
		n := 0
		for ; n < 64; n++ {
			f := Flow{
				ID:      fmt.Sprintf("f-%d", n),
				Arrival: core.Arrival{Rate: 5, Burst: 4, MaxPacket: 1},
				Path:    []string{"s"},
				SLO:     SLO{MaxDelay: 800 * time.Millisecond},
			}
			if v := c.Admit(f); !v.Admitted {
				break
			}
		}
		return n, c
	}
	nBlind, _ := fill(core.RungBlind)
	nTight, ct := fill(core.RungTight)
	if nBlind < 1 || nTight <= nBlind {
		t.Fatalf("tight rung admitted %d flows, blind %d — want strictly more", nTight, nBlind)
	}
	rep, err := ct.RevalidateAll(RevalidateOptions{Replay: ReplayOptions{Total: units.MiB, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		for _, fr := range rep.Flows {
			for _, v := range fr.Violations {
				t.Errorf("%s: %s", fr.FlowID, v)
			}
		}
	}
}

// The rung is part of the class identity: identical specs at different
// rungs must not share a class (their reservations and verdicts differ).
func TestRungSeparatesClasses(t *testing.T) {
	c := sharedNodePlatform(t)
	if v := c.Admit(rungTenant("a", core.RungFIFO, 0)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	if v := c.Admit(rungTenant("b", core.RungTight, 0)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	if got := c.ClassCount(); got != 2 {
		t.Errorf("ClassCount = %d, want 2 (rung must split classes)", got)
	}
	// Snapshot round-trip pins the admitted rung on the flow.
	for _, af := range c.Flows() {
		want := core.RungFIFO
		if af.Flow.ID == "b" {
			want = core.RungTight
		}
		if af.Flow.Rung != want {
			t.Errorf("flow %s snapshot rung = %v, want %v", af.Flow.ID, af.Flow.Rung, want)
		}
	}
}

// Rung-aware replay: an admitted FIFO-rung flow survives the -validate
// replay (the sim stages serve the rate-latency majorant of the chosen
// theta-shifted residual, so the analytic bounds must dominate), and
// revalidation reports the rung with sound tightness ratios.
func TestRungReplayAndRevalidate(t *testing.T) {
	for _, r := range []core.Rung{core.RungBlind, core.RungFIFO, core.RungTight} {
		c := sharedNodePlatform(t)
		rep, err := Replay(c, []TraceOp{
			{Op: "admit", Flow: rungTenant("flow", r, 0)},
		}, ReplayOptions{Total: units.MiB, Seed: 3})
		if err != nil {
			t.Fatalf("rung %v: %v", r, err)
		}
		if rep.Admitted != 1 || rep.Violations != 0 {
			t.Fatalf("rung %v: admitted=%d violations=%d: %+v",
				r, rep.Admitted, rep.Violations, rep.Steps)
		}
		rv, err := c.RevalidateAll(RevalidateOptions{
			Replay: ReplayOptions{Total: units.MiB, Seed: 3}, Workers: 1})
		if err != nil {
			t.Fatalf("rung %v: %v", r, err)
		}
		fr := rv.Flows[0]
		if fr.Rung != r.String() {
			t.Errorf("revalidation rung = %q, want %q", fr.Rung, r)
		}
		delay := fr.Delay.Seconds() / fr.SimDelayMax.Seconds()
		backlog := float64(fr.Backlog) / float64(fr.SimMaxBacklog)
		if delay < 1 || backlog < 1 {
			t.Errorf("rung %v: tightness below 1: delay %v backlog %v", r, delay, backlog)
		}
	}
}

// Victims keep their own rung: a blind-rung resident whose SLO only holds
// under its blind bound must not be re-judged (and spuriously kept or
// evicted) at a tight candidate's rung. The candidate's extra cross pushes
// the blind victim past its SLO, so the admission must be rejected even
// though the victim would pass at the candidate's tighter rung.
func TestRungVictimCheckedAtOwnRung(t *testing.T) {
	c := sharedNodePlatform(t)
	// Give the resident barely more headroom than its own blind bound.
	res := rungTenant("resident", core.RungBlind, rungBound(t, core.RungBlind)+10*time.Millisecond)
	if v := c.Admit(res); !v.Admitted {
		t.Fatalf("resident: %s", v.Reason)
	}
	// Any added cross traffic breaks the resident's blind bound; at FIFO
	// rungs the resident would still fit comfortably.
	cand := Flow{
		ID:      "cand",
		Arrival: core.Arrival{Rate: 1, Burst: 1},
		Path:    []string{"s"},
		Rung:    core.RungTight,
	}
	v := c.Admit(cand)
	if v.Admitted {
		t.Fatalf("candidate admitted over a blind victim's SLO: %s", v.Reason)
	}
	if v.Binding != "victim:resident" {
		t.Errorf("binding = %q, want victim:resident", v.Binding)
	}
}

// The flight recorder must surface the tight rung's search effort on the
// decision record — nonzero scored vectors for a tight admission, zero for a
// blind one — and nc_rung_combos_total must move by exactly what the records
// report.
func TestRungSearchEffortOnDecisionRecord(t *testing.T) {
	defer curve.SetOpCounter(nil)
	defer core.SetAnalysisTimer(nil)
	c := sharedNodePlatform(t)
	reg := obs.NewRegistry()
	c.EnableObs(reg)
	rec := c.EnableFlightRecorder(16)
	combos := func() int {
		m := regexp.MustCompile(`(?m)^nc_rung_combos_total (\d+)$`).FindStringSubmatch(scrape(t, reg))
		if m == nil {
			t.Fatal("scrape lacks nc_rung_combos_total")
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	before := combos()
	if v := c.Admit(rungTenant("b", core.RungBlind, 0)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	if v := c.Admit(rungTenant("t", core.RungTight, 0)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	recs := rec.Snapshot(0)
	if len(recs) != 2 {
		t.Fatalf("recorder depth = %d, want 2", len(recs))
	}
	// Newest first: recs[1] is the blind admission (no tight analyses
	// anywhere yet), recs[0] the tight one.
	if recs[1].RungCombos != 0 {
		t.Errorf("blind decision reported search effort: %d", recs[1].RungCombos)
	}
	if recs[0].RungCombos <= 0 {
		t.Errorf("tight decision reported no scored combos: %+v", recs[0])
	}
	if delta := combos() - before; delta != recs[0].RungCombos {
		t.Errorf("nc_rung_combos_total moved by %d, the records report %d", delta, recs[0].RungCombos)
	}
}
