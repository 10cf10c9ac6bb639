package admit

import (
	"testing"

	"streamcalc/internal/units"
)

func TestReplayNoViolations(t *testing.T) {
	c := testPlatform(t)
	ops := []TraceOp{
		{Op: "admit", Flow: tenant("t1", 10*units.MiBPerSec)},
		{Op: "admit", Flow: tenant("t2", 15*units.MiBPerSec)},
		{Op: "admit", Flow: tenant("hog", 400*units.MiBPerSec)}, // rejected
		{Op: "release", ID: "t1"},
		{Op: "admit", Flow: tenant("t3", 20*units.MiBPerSec)},
	}
	rep, err := Replay(c, ops, ReplayOptions{Total: 4 * units.MiB, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 3 || rep.Rejected != 1 {
		t.Errorf("admitted/rejected = %d/%d, want 3/1", rep.Admitted, rep.Rejected)
	}
	if rep.Violations != 0 {
		for _, s := range rep.Steps {
			for _, v := range s.Violations {
				t.Errorf("step %d (%s %s): %s", s.Index, s.Op, s.FlowID, v)
			}
		}
	}
	for _, s := range rep.Steps {
		if s.Op == "admit" && s.Verdict.Admitted {
			if s.Revalidation == nil {
				t.Fatalf("admitted flow %s was not simulated", s.FlowID)
			}
			if s.Revalidation.SimDelayMax > s.Verdict.Delay {
				t.Errorf("flow %s: simulated delay %v above promised %v",
					s.FlowID, s.Revalidation.SimDelayMax, s.Verdict.Delay)
			}
		}
	}
}

func TestReplayFlagsUnknownRelease(t *testing.T) {
	c := testPlatform(t)
	rep, err := Replay(c, []TraceOp{{Op: "release", ID: "ghost"}}, ReplayOptions{Total: units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 1 {
		t.Errorf("unknown release must count as a violation, got %d", rep.Violations)
	}
}

func TestReplayRejectsUnknownOp(t *testing.T) {
	c := testPlatform(t)
	if _, err := Replay(c, []TraceOp{{Op: "pause"}}, ReplayOptions{}); err == nil {
		t.Error("unknown op must error")
	}
}
