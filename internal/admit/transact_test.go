package admit

import (
	"fmt"
	"go/build"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// TestPanicInAnalysisDoesNotWedge injects a panic into the analysis — a
// ticket that skipped precheck and names a node the platform does not have —
// first as part of a drained group, then from a live caller racing a
// well-formed one. Every caller gets an answer, nothing is committed for a
// group that panicked, no lock and no leadership stays held, and the
// controller carries on. Then the AdmitBatch entrance, which holds the writer
// role itself: the same bad candidate, handed to decideBatch past precheck,
// parks under the role while the test holds the registry lock, an Admit
// ticket queues behind it, and once the lock goes the panic reaches the
// batch's caller and the queued ticket is answered.
func TestPanicInAnalysisDoesNotWedge(t *testing.T) {
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

	// The batch takes the writer role and parks on the registry lock the
	// test holds; the ticket queues behind the role.
	c.mu.Lock()
	batchPanic := make(chan any, 1)
	go func() {
		defer func() { batchPanic <- recover() }()
		tk := c.admitTicket(bad)
		c.decideBatch([]cand{{f: tk.f, key: tk.key}}, make([]Verdict, 1), nil)
	}()
	for len(c.leaderSem) == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() { answers <- c.submit(c.admitTicket(tenant("queued", 5*units.MiBPerSec))).v }()
	for queued := 0; queued == 0; time.Sleep(time.Millisecond) {
		c.qmu.Lock()
		queued = len(c.queue)
		c.qmu.Unlock()
	}
	c.mu.Unlock()
	if r := <-batchPanic; r == nil {
		t.Error("the batch's caller saw no panic from its bad candidate")
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
// core.Reservations and every bound a chain bound, both in scalars, and
// neither this package nor the daemon imports the curve engine (CI checks
// the same with go list).
func TestNewClassBuildsNoCurve(t *testing.T) {
	for _, dir := range []string{".", "../../cmd/ncadmitd"} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if imp == "streamcalc/internal/curve" {
				t.Errorf("package %s (%s) imports %s", pkg.Name, dir, imp)
			}
		}
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

// Admit and AdmitBatch decide such an arrival like any other: on a path it
// overloads it is refused for saturation, on a path that can carry it it is
// admitted, both entrances put it in one class, and the controller carries
// on.
func TestUnrepresentableArrivalIsAnalysed(t *testing.T) {
	c := testPlatform(t)
	if err := knee("k").Arrival.Validate(); err != nil {
		t.Fatalf("the knee arrival is invalid: %v", err)
	}
	check := func(entrance string, v Verdict) {
		t.Helper()
		if v.Admitted || v.Binding != "saturation" {
			t.Errorf("%s: %+v, want a saturation refusal", entrance, v)
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

	node := func(name string, rate units.Rate) core.Node {
		return core.Node{Name: name, Rate: rate, Latency: 100 * time.Microsecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB}
	}
	wide, err := New("wide", []core.Node{node("ingest", 2*units.GiBPerSec), node("encrypt", units.GiBPerSec)})
	if err != nil {
		t.Fatal(err)
	}
	if v := wide.Admit(knee("k3")); !v.Admitted {
		t.Errorf("Admit on a path that carries it: %+v", v)
	}
	if v := wide.AdmitBatch([]Flow{knee("k4")})[0]; !v.Admitted {
		t.Errorf("AdmitBatch on a path that carries it: %+v", v)
	}
	if v, err := wide.Recheck("k3"); err != nil || !v.Admitted {
		t.Errorf("recheck: %+v, %v", v, err)
	}
	if n := wide.ClassCount(); n != 1 {
		t.Errorf("%d classes for two flows of one spec, want 1", n)
	}
}

// screenDraw is internal/core's randomScreenPipeline (chain_test.go), draw
// for draw: the pipelines its census tests run on.
func screenDraw(rng *rand.Rand) core.Pipeline {
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	nodes := make([]core.Node, 1+rng.Intn(4))
	gain, carry := 1.0, math.Inf(1)
	for i := range nodes {
		rate := logUniform(1e3, 1e11)
		n := core.Node{
			Name: string(rune('a' + i)), Rate: units.Rate(rate),
			Latency: time.Duration(logUniform(2, 1e7)),
			JobIn:   1, JobOut: 1,
		}
		switch rng.Intn(3) {
		case 0:
			n.JobIn = units.Bytes(logUniform(1e4, 1e6))
			n.JobOut = n.JobIn
		case 1:
			n.JobIn = units.Bytes(logUniform(1, 1e4))
			n.JobOut = n.JobIn.Mul(logUniform(0.1, 10))
		}
		if rng.Intn(2) == 0 {
			n.MaxPacket = units.Bytes(logUniform(64, 9000))
		}
		if rng.Intn(3) > 0 {
			n.CrossRate = units.Rate(rate * 0.97 * rng.Float64())
			n.CrossBurst = units.Bytes(logUniform(1, 1e7))
		}
		carry = math.Min(carry, float64(n.Rate-n.CrossRate)/gain)
		gain *= n.Gain()
		nodes[i] = n
	}
	arr := core.Arrival{
		Rate:  units.Rate(carry * logUniform(0.01, 1.2)),
		Burst: units.Bytes(logUniform(1, 1e7)),
	}
	if rng.Intn(3) > 0 {
		arr.MaxPacket = units.Bytes(logUniform(64, 9000))
	}
	for k := rng.Intn(3); k > 0; k-- {
		last := core.Bucket{Rate: arr.Rate, Burst: arr.Burst}
		if len(arr.Extra) > 0 {
			last = arr.Extra[len(arr.Extra)-1]
		}
		arr.Extra = append(arr.Extra, core.Bucket{
			Rate:  last.Rate.Mul(logUniform(1.5, 10)),
			Burst: last.Burst.Mul(logUniform(0.05, 0.8)),
		})
	}
	return core.Pipeline{Arrival: arr, Nodes: nodes}
}

// Of the 10 000 seed-25 screen draws, the 109 arrivals whose envelope the
// curve engine cannot build all pass precheck, and each is decided by the
// analysis on its own draw's platform: none is refused as a spec error.
func TestKneeArrivalCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	knees := 0
	for trial := 0; trial < 10000; trial++ {
		p := screenDraw(rng)
		panicked := func() (r any) {
			defer func() { r = recover() }()
			p.Arrival.Envelope()
			return nil
		}()
		if panicked == nil {
			continue
		}
		knees++
		c, err := New("draw", p.Nodes)
		if err != nil {
			t.Fatalf("draw %d: %v", trial, err)
		}
		f := Flow{ID: fmt.Sprint(trial), Arrival: p.Arrival}
		for _, n := range p.Nodes {
			f.Path = append(f.Path, n.Name)
		}
		if v, _, bad := c.precheck(f, 0); bad {
			t.Errorf("draw %d: precheck refuses: %s", trial, v.Reason)
			continue
		}
		if v := c.Admit(f); v.Binding == "spec" || v.Binding == "internal" {
			t.Errorf("draw %d: %+v", trial, v)
		}
	}
	if knees != 109 {
		t.Errorf("%d draws the curve engine cannot build an envelope for, want 109", knees)
	}
}
