package admit

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// TestExclusiveAttemptIsTheSameDecision: the last, write-locked attempt of
// transact is the optimistic one minus the validation — same function, same
// answers, same registry afterwards.
func TestExclusiveAttemptIsTheSameDecision(t *testing.T) {
	heavy := tenant("heavy", 28*units.MiBPerSec)
	heavy.SLO = SLO{}
	for _, flows := range [][]Flow{
		{tenant("a", 2*units.MiBPerSec), tenant("b", 3*units.MiBPerSec)},
		{heavy},
	} {
		var answers [2][]Verdict
		var states [2][]Verdict
		for mode, exclusive := range []bool{false, true} {
			c := seededRegistry(t)
			cands := make([]cand, len(flows))
			for i, f := range flows {
				cands[i] = cand{f: f, key: c.keyFor(f)}
			}
			d := c.attempt(cands, exclusive, nil)
			if d == nil {
				t.Fatalf("exclusive=%t: conflict on a quiescent registry", exclusive)
			}
			for i, cd := range cands {
				answers[mode] = append(answers[mode], d.verdict(i, cd))
			}
			states[mode] = recheckAll(t, c)
		}
		if !reflect.DeepEqual(answers[0], answers[1]) {
			t.Errorf("optimistic %+v\nexclusive  %+v", answers[0], answers[1])
		}
		if !reflect.DeepEqual(states[0], states[1]) {
			t.Errorf("registries differ after optimistic and exclusive attempts")
		}
	}
}

// TestStaleSnapshotIsNotCommitted: a decision whose analysis read a node
// that has since changed, or whose candidate has since been admitted, fails
// validation; one on an untouched path does not.
func TestStaleSnapshotIsNotCommitted(t *testing.T) {
	c, aNames, bNames := isolationPlatform(t)
	onPath := func(id string, path []string) Flow {
		f := tenant(id, 2*units.MiBPerSec)
		f.Path = path
		return f
	}
	if v := c.Admit(onPath("a-0", aNames)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	cands := []cand{{f: onPath("a-1", aNames)}}
	cands[0].key = c.keyFor(cands[0].f)
	current := func(d *decision) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.depsCurrent(d, cands)
	}

	d := c.analyse(cands, nil)
	if !d.ok || !current(d) {
		t.Fatalf("fresh decision: ok=%t current=%t", d.ok, current(d))
	}
	if v := c.Admit(onPath("b-0", bNames)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	if !current(d) {
		t.Error("a commit on a disjoint path invalidated the snapshot")
	}
	if !c.Release("a-0") {
		t.Fatal("release failed")
	}
	if current(d) {
		t.Error("a release on the analysed path left the snapshot valid")
	}

	d = c.analyse(cands, nil)
	if v := c.Admit(cands[0].f); !v.Admitted {
		t.Fatal(v.Reason)
	}
	if current(d) {
		t.Error("the candidate was admitted meanwhile and the snapshot still validates")
	}
	if d := c.attempt(cands, false, nil); d == nil || d.verdict(0, cands[0]).Binding != "spec" {
		t.Errorf("re-offering an admitted ID: %+v", d)
	}
}

// TestPanicInAnalysisDoesNotWedge injects a panic into the analysis — a
// ticket that skipped precheck and names a node the platform does not have —
// first as part of a drained group, then from a live caller racing a
// well-formed one. Every caller gets an answer, nothing is committed for a
// group that panicked, no lock and no leadership stays held, and the
// controller carries on.
func TestPanicInAnalysisDoesNotWedge(t *testing.T) {
	c := testPlatform(t)
	reg := obs.NewRegistry()
	c.EnableObs(reg)
	if v := c.Admit(tenant("keep", 2*units.MiBPerSec)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	bad := tenant("bad", units.MiBPerSec)
	bad.Path = []string{"ingest", "gpu"}
	newTicket := func(f Flow) *ticket {
		return &ticket{kind: tkAdmit, f: f, key: c.keyFor(f), done: make(chan ticketResult, 1)}
	}

	group := []*ticket{newTicket(tenant("good-1", units.MiBPerSec)), newTicket(bad)}
	c.processGroup(group)
	for _, tk := range group {
		select {
		case r := <-tk.done:
			if r.v.Admitted || r.v.Binding != "internal" || r.v.Cached || r.v.FlowID != tk.f.ID {
				t.Errorf("%s: %+v, want an uncached internal rejection", tk.f.ID, r.v)
			}
		default:
			t.Fatalf("%s was left unanswered", tk.f.ID)
		}
	}
	if n := c.FlowCount(); n != 1 {
		t.Errorf("%d flows registered after a panicked group, want 1", n)
	}

	answers := make(chan Verdict, 2)
	for _, f := range []Flow{bad, tenant("good-2", units.MiBPerSec)} {
		f := f
		go func() { answers <- c.submit(&ticket{kind: tkAdmit, f: f, key: c.keyFor(f)}).v }()
	}
	for i := 0; i < 2; i++ {
		select {
		case v := <-answers:
			// The good ticket is admitted when decided apart from the bad
			// one, and shares its fate when grouped with it.
			if v.FlowID == "bad" && v.Binding != "internal" {
				t.Errorf("bad ticket: %+v", v)
			}
			if v.FlowID == "good-2" && !v.Admitted && v.Binding != "internal" {
				t.Errorf("good ticket: %+v", v)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a caller is still waiting: the combiner is wedged")
		}
	}

	// The last leader answers its tickets before it steps down, so give it
	// a moment.
	select {
	case c.leaderSem <- struct{}{}:
		<-c.leaderSem
	case <-time.After(30 * time.Second):
		t.Fatal("leadership is still held")
	}
	if !c.mu.TryLock() {
		t.Fatal("the registry lock is still held")
	}
	c.mu.Unlock()

	if v := c.Admit(tenant("after", units.MiBPerSec)); !v.Admitted {
		t.Errorf("admit after the panics: %s", v.Reason)
	}
	if v := c.AdmitBatch([]Flow{tenant("after-batch", units.MiBPerSec)})[0]; !v.Admitted {
		t.Errorf("batch after the panics: %s", v.Reason)
	}
	if v, err := c.Recheck("keep"); err != nil || !v.Admitted {
		t.Errorf("recheck after the panics: %+v, %v", v, err)
	}
	if !c.Release("keep") {
		t.Error("release after the panics failed")
	}
	if !strings.Contains(scrape(t, reg), "nc_admit_internal_errors_total 2\n") {
		t.Error("want nc_admit_internal_errors_total at 2, one per panicked group")
	}
}
