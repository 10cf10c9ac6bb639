package admit

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// TestPanicInAnalysisDoesNotWedge injects a panic into the analysis — a
// ticket that skipped precheck and names a node the platform does not have —
// first as part of a drained group, then from a live caller racing a
// well-formed one. Every caller gets an answer, nothing is committed for a
// group that panicked, no lock and no leadership stays held, and the
// controller carries on. Then the AdmitBatch entrance, which holds the writer
// role itself: a panic in its analysis (from the analysis timer, the one hook
// there is) reaches the caller, and the Admit queued behind it is answered.
func TestPanicInAnalysisDoesNotWedge(t *testing.T) {
	defer curve.SetOpCounter(nil)
	defer core.SetAnalysisTimer(nil)
	c := testPlatform(t)
	reg := obs.NewRegistry()
	c.EnableObs(reg)
	if v := c.Admit(tenant("keep", 2*units.MiBPerSec)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	bad := tenant("bad", units.MiBPerSec)
	bad.Path = []string{"ingest", "gpu"}
	group := []*ticket{c.admitTicket(tenant("good-1", units.MiBPerSec)), c.admitTicket(bad)}
	c.processGroup(group)
	for _, tk := range group {
		select {
		case r := <-tk.done:
			if r.v.Admitted || r.v.Binding != "internal" || r.v.FlowID != tk.f.ID {
				t.Errorf("%s: %+v, want an internal rejection", tk.f.ID, r.v)
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
		go func() { answers <- c.submit(c.admitTicket(f)).v }()
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
	assertIdle := func() {
		t.Helper()
		select {
		case c.leaderSem <- struct{}{}:
			<-c.leaderSem
		case <-time.After(30 * time.Second):
			t.Fatal("the writer role is still held")
		}
		if !c.mu.TryLock() {
			t.Fatal("the registry lock is still held")
		}
		c.mu.Unlock()
	}
	assertIdle()
	before := c.FlowCount()

	// The first analysis computed from here on parks until the test lets it
	// panic; the batch that runs it is then mid-analysis, under the role.
	var armed atomic.Bool
	armed.Store(true)
	entered, proceed := make(chan struct{}), make(chan struct{})
	core.SetAnalysisTimer(func(float64) {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-proceed
			panic("injected")
		}
	})
	batchPanic := make(chan any, 1)
	go func() {
		defer func() { batchPanic <- recover() }()
		c.AdmitBatch([]Flow{tenant("batch-bad", 3*units.MiBPerSec)})
	}()
	<-entered
	go func() { answers <- c.Admit(tenant("queued", 5*units.MiBPerSec)) }()
	for queued := 0; queued == 0; time.Sleep(time.Millisecond) {
		c.qmu.Lock()
		queued = len(c.queue)
		c.qmu.Unlock()
	}
	close(proceed)
	if r := <-batchPanic; r != "injected" {
		t.Errorf("the batch's caller recovered %v, want the injected panic", r)
	}
	select {
	case v := <-answers:
		if !v.Admitted {
			t.Errorf("the Admit queued behind the panicked batch: %+v", v)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the Admit queued behind the panicked batch is still waiting")
	}
	assertIdle()
	if n := c.FlowCount(); n != before+1 {
		t.Errorf("%d flows registered after the panicked batch and the queued Admit, want %d", n, before+1)
	}

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

// A decision on a new class builds no curve: its reservation is
// core.Reservations and every bound a chain bound, both in scalars.
func TestNewClassBuildsNoCurve(t *testing.T) {
	c := testPlatform(t)
	if v := c.Admit(tenant("first", 2*units.MiBPerSec)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	ops := 0
	defer curve.SetOpCounter(curve.SetOpCounter(func(curve.OpKind) { ops++ }))
	if v := c.Admit(tenant("admit", 3*units.MiBPerSec)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	if ops != 0 {
		t.Errorf("Admit of a new class: %d curve operator calls, want 0", ops)
	}
	ops = 0
	if v := c.AdmitBatch([]Flow{tenant("batch", 4*units.MiBPerSec)})[0]; !v.Admitted {
		t.Fatal(v.Reason)
	}
	if ops != 0 {
		t.Errorf("AdmitBatch of a new class: %d curve operator calls, want 0", ops)
	}
}

// knee is a valid arrival whose envelope the curve engine cannot build: its
// buckets cross below the engine's time resolution.
func knee(id string) Flow {
	return Flow{ID: id, Path: []string{"ingest", "encrypt"}, Arrival: core.Arrival{
		Rate: 238 * units.MiBPerSec, Burst: 20, MaxPacket: units.Bytes(2.43 * 1024),
		Extra: []core.Bucket{{Rate: 895 * units.MiBPerSec, Burst: 1.33}, {Rate: units.Rate(5.99 * 1024 * 1024 * 1024), Burst: 0.682}},
	}}
}

// Admit and AdmitBatch refuse such an arrival as a spec error naming the
// cause, and the controller carries on.
func TestUnrepresentableArrivalIsSpec(t *testing.T) {
	c := testPlatform(t)
	if err := knee("k").Arrival.Validate(); err != nil {
		t.Fatalf("the knee arrival is invalid: %v", err)
	}
	check := func(entrance string, v Verdict) {
		t.Helper()
		if v.Admitted || v.Binding != "spec" || !strings.Contains(v.Reason, "time axis") {
			t.Errorf("%s: %+v, want a spec refusal naming the time axis", entrance, v)
		}
	}
	check("Admit", c.Admit(knee("k1")))
	vs := c.AdmitBatch([]Flow{knee("k2"), tenant("fine", units.MiBPerSec)})
	check("AdmitBatch", vs[0])
	if !vs[1].Admitted {
		t.Errorf("the well-formed flow beside it: %+v", vs[1])
	}
	if n := c.FlowCount(); n != 1 {
		t.Errorf("%d flows registered, want 1", n)
	}
}
