package admit

import (
	"reflect"
	"testing"
	"time"

	"streamcalc/internal/units"
)

// The three ways into the admission transaction, each returning one verdict
// per offered flow in order.
var entrances = []struct {
	name  string
	offer func(c *Controller, flows []Flow) []Verdict
}{
	{"admit", func(c *Controller, flows []Flow) []Verdict {
		out := make([]Verdict, len(flows))
		for i, f := range flows {
			out[i] = c.Admit(f)
		}
		return out
	}},
	{"group", func(c *Controller, flows []Flow) []Verdict {
		// The combiner leader's entry, handed the flows as one drained group.
		ts := make([]*ticket, len(flows))
		for i, f := range flows {
			ts[i] = c.admitTicket(f)
		}
		c.processGroup(ts)
		out := make([]Verdict, len(ts))
		for i, t := range ts {
			out[i] = (<-t.done).v
		}
		return out
	}},
	{"batch", (*Controller).AdmitBatch},
}

// seededRegistry is the state every entrance starts from: two classes on
// the shared path, one of them with a delay SLO a heavy newcomer would break.
func seededRegistry(t *testing.T) *Controller {
	t.Helper()
	var c *Controller
	var promised time.Duration
	// Twice: once to learn the delay the fragile tenant is promised next to
	// the other two, then with its SLO set at three times that.
	for pass := 0; pass < 2; pass++ {
		c = testPlatform(t)
		fragile := tenant("s-fragile", 6*units.MiBPerSec)
		fragile.SLO.MaxDelay = 3 * promised
		for _, f := range []Flow{tenant("s-1", 4*units.MiBPerSec), tenant("s-2", 4*units.MiBPerSec), fragile} {
			v := c.Admit(f)
			if !v.Admitted {
				t.Fatalf("seed %s: %s", f.ID, v.Reason)
			}
			promised = v.Delay
		}
	}
	return c
}

func sansEpoch(v Verdict) Verdict {
	v.Epoch = 0
	return v
}

// recheckAll is a registry's state as its tenants see it: every admitted
// flow's recheck verdict, epochs blanked.
func recheckAll(t *testing.T, c *Controller) []Verdict {
	t.Helper()
	var out []Verdict
	for _, af := range c.Flows() {
		v, err := c.Recheck(af.Flow.ID)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sansEpoch(v))
	}
	return out
}

// TestEntrancesAgreeOnOne: a single Admit is the set of one. One flow
// offered through each entrance to identical registries gets the identical
// verdict — every field, Reason and Epoch included — whether it is admitted,
// refused on its own SLO, refused for saturating a node, or refused on
// behalf of a victim.
func TestEntrancesAgreeOnOne(t *testing.T) {
	tooStrict := tenant("x", 2*units.MiBPerSec)
	tooStrict.SLO.MaxDelay = time.Microsecond
	heavy := tenant("x", 28*units.MiBPerSec)
	heavy.SLO = SLO{}
	for _, tc := range []struct {
		name    string
		flow    Flow
		binding string
	}{
		{"admitted", tenant("x", 2*units.MiBPerSec), ""},
		{"own SLO", tooStrict, "max_delay"},
		{"saturation", tenant("x", 45*units.MiBPerSec), "saturation"},
		{"victim", heavy, "victim:s-fragile"},
	} {
		var want Verdict
		for i, e := range entrances {
			c := seededRegistry(t)
			got := e.offer(c, []Flow{tc.flow})[0]
			if got.Binding != tc.binding || got.Admitted != (tc.binding == "") {
				t.Errorf("%s via %s: binding %q admitted %t, want binding %q (%s)",
					tc.name, e.name, got.Binding, got.Admitted, tc.binding, got.Reason)
			}
			if i == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: via %s\n got %+v\nwant %+v (via %s)", tc.name, e.name, got, want, entrances[0].name)
			}
		}
	}
}

// TestEntrancesAgreeOnFittingSet: flows that fit together. The combiner
// group and AdmitBatch commit them as one transaction and answer
// identically, field for field. Admit commits them one transaction each, so
// its earlier verdicts were promised at smaller states and its epochs run
// ahead — Epoch counts transactions, not flows, and a verdict carries the
// epoch its analysis read — but it admits the same set, its last verdict
// (analysed at the same final state) is the same promise, and the three
// registries end up indistinguishable to their tenants.
func TestEntrancesAgreeOnFittingSet(t *testing.T) {
	offer := []Flow{
		tenant("n-1", 4*units.MiBPerSec), // joins the seeded class of s-1/s-2
		tenant("n-2", 2*units.MiBPerSec),
		tenant("n-3", 2*units.MiBPerSec),
	}
	answers := map[string][]Verdict{}
	states := map[string][]Verdict{}
	for _, e := range entrances {
		c := seededRegistry(t)
		before := c.Epoch()
		answers[e.name] = e.offer(c, offer)
		states[e.name] = recheckAll(t, c)
		for _, v := range answers[e.name] {
			if !v.Admitted {
				t.Fatalf("via %s: %s refused: %s", e.name, v.FlowID, v.Reason)
			}
		}
		wantSteps := uint64(1)
		if e.name == "admit" {
			wantSteps = uint64(len(offer))
		}
		if got := c.Epoch() - before; got != wantSteps {
			t.Errorf("via %s: epoch advanced %d, want %d", e.name, got, wantSteps)
		}
	}
	if !reflect.DeepEqual(answers["group"], answers["batch"]) {
		t.Errorf("group and batch answers differ\ngroup %+v\nbatch %+v", answers["group"], answers["batch"])
	}
	last := len(offer) - 1
	if got, want := sansEpoch(answers["admit"][last]), sansEpoch(answers["group"][last]); !reflect.DeepEqual(got, want) {
		t.Errorf("last verdict: admit %+v\ngroup %+v", got, want)
	}
	for _, name := range []string{"group", "batch"} {
		if !reflect.DeepEqual(states[name], states["admit"]) {
			t.Errorf("registry after %s differs from the one after admit\n%+v\n%+v", name, states[name], states["admit"])
		}
	}
}

// TestEntrancesAgreeOnRefusedSet: flows that do not all fit. A refused group
// is decided one ticket at a time in order, so the combiner answers exactly
// as sequential Admit does — every field. AdmitBatch commits the prefix that
// fits as a set, decides the boundary flow alone and carries on: the same
// admitted set, the same refusal for the boundary flow, the same verdict for
// the flows after it up to the epoch, and the same final registry. The
// second heavy flow is of the boundary's class: AdmitBatch hands it the
// boundary's refusal without deciding it, and that must be the verdict
// sequential Admit decides for it.
func TestEntrancesAgreeOnRefusedSet(t *testing.T) {
	heavy := tenant("n-heavy", 28*units.MiBPerSec)
	heavy.SLO = SLO{}
	heavy2 := heavy
	heavy2.ID = "n-heavy2"
	offer := []Flow{
		tenant("n-1", 2*units.MiBPerSec),
		tenant("n-2", 2*units.MiBPerSec),
		heavy, // breaks s-fragile
		heavy2,
		tenant("n-5", 2*units.MiBPerSec),
	}
	answers := map[string][]Verdict{}
	states := map[string][]Verdict{}
	for _, e := range entrances {
		c := seededRegistry(t)
		answers[e.name] = e.offer(c, offer)
		states[e.name] = recheckAll(t, c)
	}
	want := answers["admit"]
	if want[2].Admitted || want[2].Binding != "victim:s-fragile" || want[3].Admitted || !want[4].Admitted {
		t.Fatalf("scenario drifted: %+v", want)
	}
	if !reflect.DeepEqual(answers["group"], want) {
		t.Errorf("group answers differ from sequential admit\ngroup %+v\nadmit %+v", answers["group"], want)
	}
	for i, v := range answers["batch"] {
		if v.Admitted != want[i].Admitted || v.Binding != want[i].Binding || v.Bottleneck != want[i].Bottleneck {
			t.Errorf("batch flow %d: %+v, admit has %+v", i, v, want[i])
		}
		if i >= 2 && !reflect.DeepEqual(sansEpoch(v), sansEpoch(want[i])) {
			t.Errorf("batch flow %d (decided at the same state as by admit): %+v, admit has %+v", i, v, want[i])
		}
	}
	if b := answers["batch"]; b[3].FlowID != heavy2.ID || b[3].Epoch != b[2].Epoch {
		t.Errorf("batch flow 3 is not the boundary's refusal for %s: %+v, boundary %+v", heavy2.ID, b[3], b[2])
	}
	for _, name := range []string{"group", "batch"} {
		if !reflect.DeepEqual(states[name], states["admit"]) {
			t.Errorf("registry after %s differs from the one after admit", name)
		}
	}
}
