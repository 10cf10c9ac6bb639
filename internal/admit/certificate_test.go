package admit_test

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// tightChainProgram drives a program shaped like the benchmark's
// tight_replay workload: a 4-node chain at the tight rung, sized at 1.1× the
// demand of its ramp so delay binds, and 12 classes with three-bucket
// envelopes (20 ms of burst at the sustained rate, peaks at 2× and 4×), on a
// long and a short path. It ramps through AdmitBatch, then churns one admit
// or release per step, calling after(step) after every step. It returns the
// flight recorder's decisions.
func tightChainProgram(t *testing.T, after func(c *admit.Controller, step string)) []admit.DecisionRecord {
	t.Helper()
	const (
		classes = 12
		rampN   = 36
		batchN  = 12
		churnN  = 48
		mtu     = 1500
	)
	paths := [][]string{{"n1", "n2", "n3", "n4"}, {"n1", "n3", "n4"}}
	type class struct {
		arr  core.Arrival
		path []string
		slo  admit.SLO
	}
	cls := make([]class, classes)
	for i := range cls {
		rate := units.Rate(32<<10) * units.Rate(math.Pow(1.5, float64(i)))
		burst := units.Bytes(0.02 * float64(rate))
		slo := admit.SLO{MaxDelay: 200 * time.Millisecond}
		switch {
		case i == classes-1:
			slo = admit.SLO{MaxDelay: 80 * time.Millisecond, MinThroughput: rate.Mul(0.9)}
		case i >= classes-3:
			slo.MaxDelay = 120 * time.Millisecond
		}
		cls[i] = class{
			arr: core.Arrival{Rate: rate, Burst: burst, MaxPacket: mtu, Extra: []core.Bucket{
				{Rate: rate.Mul(4), Burst: burst.Mul(0.25)},
				{Rate: rate.Mul(2), Burst: burst.Mul(0.5)},
			}},
			path: paths[i%2],
			slo:  slo,
		}
	}
	rng := rand.New(rand.NewSource(38))
	pick := func() int { return int(math.Min(classes-1, rng.ExpFloat64()*4)) } // popular slow classes
	flow := func(id string, ci int) admit.Flow {
		return admit.Flow{ID: id, Arrival: cls[ci].arr, Path: cls[ci].path, SLO: cls[ci].slo, Rung: core.RungTight}
	}
	var ramp []admit.Flow
	demand := map[string]units.Rate{}
	for i := 0; i < rampN; i++ {
		ci := pick()
		ramp = append(ramp, flow(fmt.Sprintf("r%02d", i), ci))
		for _, n := range cls[ci].path {
			demand[n] += cls[ci].arr.Rate
		}
	}
	var nodes []core.Node
	for i, lat := range []time.Duration{200, 400, 300, 250} {
		name := fmt.Sprintf("n%d", i+1)
		nodes = append(nodes, core.Node{Name: name, Rate: demand[name].Mul(1.1),
			Latency: lat * time.Microsecond, JobIn: mtu, JobOut: mtu, MaxPacket: mtu})
	}
	c, err := admit.New("tight-chain", nodes)
	if err != nil {
		t.Fatal(err)
	}
	rec := c.EnableFlightRecorder(rampN + churnN)

	var held []string
	for lo := 0; lo < rampN; lo += batchN {
		for _, v := range c.AdmitBatch(ramp[lo : lo+batchN]) {
			if v.Admitted {
				held = append(held, v.FlowID)
			}
		}
		after(c, fmt.Sprintf("batch@%d", lo))
	}
	for i := 0; i < churnN; i++ {
		if i%2 == 1 && len(held) > 0 {
			j := rng.Intn(len(held))
			if !c.Release(held[j]) {
				t.Fatalf("step %d: release of held flow %s failed", i, held[j])
			}
			held = append(held[:j], held[j+1:]...)
		} else if v := c.Admit(flow(fmt.Sprintf("c%02d", i), pick())); v.Admitted {
			held = append(held, v.FlowID)
		}
		after(c, fmt.Sprintf("op %d", i))
	}
	return rec.Snapshot(0)
}

// After every step of the tight chain program every admitted flow passes
// its recheck and its simulated replay: the promises stand whether a victim
// was cleared by its stored θ-vector or by a fresh search. The program also
// has to reach the certificate path.
func TestTightChainProgramKeepsPromises(t *testing.T) {
	recs := tightChainProgram(t, func(c *admit.Controller, step string) {
		t.Helper()
		rep, err := c.RevalidateAll(admit.RevalidateOptions{
			Replay: admit.ReplayOptions{Total: units.MiB, Seed: 38}, Workers: 1})
		if err != nil {
			t.Fatalf("%s: revalidate: %v", step, err)
		}
		for _, fr := range rep.Flows {
			for _, viol := range fr.Violations {
				t.Errorf("%s: flow %s: %s", step, fr.FlowID, viol)
			}
		}
		recheckAll(t, c, step)
	})
	var checked, screened, certified, refused int
	for _, r := range recs {
		checked += r.VictimsChecked
		screened += r.VictimsScreened
		certified += r.VictimsCertified
		if r.Kind == admit.KindAdmit && !r.Admitted {
			refused++
		}
	}
	if certified == 0 || refused == 0 {
		t.Errorf("%d victims certified, %d admits refused: the program misses the certificate path or never binds",
			certified, refused)
	}
	t.Logf("victims: %d checked, %d screened, %d certified; %d admits refused", checked, screened, certified, refused)
}

// Recheck reports the better of the stored vector's bound and the fresh
// search's: whenever the fresh bound meets the SLO, Recheck holds and
// reports no larger a delay.
func TestRecheckNoLooserThanFreshBound(t *testing.T) {
	var compared, tighter int
	tightChainProgram(t, func(c *admit.Controller, step string) {
		t.Helper()
		for _, af := range c.Flows() {
			id := af.Flow.ID
			fresh, meets, err := c.FreshBound(id)
			if err != nil {
				t.Fatalf("%s: flow %s: %v", step, id, err)
			}
			v, err := c.Recheck(id)
			if err != nil {
				t.Fatalf("%s: flow %s: %v", step, id, err)
			}
			if !meets {
				continue
			}
			compared++
			if !v.Admitted || v.Delay > fresh.Delay {
				t.Errorf("%s: flow %s: recheck %v (admitted %t), fresh bound %v meets the SLO",
					step, id, v.Delay, v.Admitted, fresh.Delay)
			}
			if v.Delay < fresh.Delay {
				tighter++
			}
		}
	})
	if compared == 0 {
		t.Fatal("no recheck compared")
	}
	t.Logf("%d rechecks compared, %d tighter than the fresh search", compared, tighter)
}

// A tight victim whose SLO the closed-form screen cannot clear but a chain
// pass at its stored θ-vector can is certified, and the decision record, the
// audit line and /metrics all say so.
func TestCertifiedVictimsAreCounted(t *testing.T) {
	defer curve.SetOpCounter(nil)
	defer core.SetAnalysisTimer(nil)
	c := goldenPlatform(t, core.RungTight)
	reg := obs.NewRegistry()
	c.EnableObs(reg)
	rec := c.EnableFlightRecorder(8)
	var audit bytes.Buffer
	c.SetAudit(slog.New(slog.NewTextHandler(&audit, nil)))

	flow := func(id string, rate units.Rate, burst units.Bytes, maxDelay time.Duration) admit.Flow {
		return admit.Flow{ID: id, Path: []string{"ingest", "transcode", "egress"},
			Arrival: core.Arrival{Rate: rate, Burst: burst, MaxPacket: 1500},
			SLO:     admit.SLO{MaxDelay: maxDelay}}
	}
	// A bursty co-resident makes the FIFO member pay off; learn the bound
	// the victim gets beside it, then admit it with 5 % to spare, so its
	// stored vector is taken under that cross traffic.
	if v := c.Admit(flow("bursty", 2*units.MiBPerSec, 2*units.MiB, 0)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	probe := c.Admit(flow("probe", 4*units.MiBPerSec, 16*units.KiB, 0))
	if !probe.Admitted {
		t.Fatal(probe.Reason)
	}
	c.Release("probe")
	if v := c.Admit(flow("victim", 4*units.MiBPerSec, 16*units.KiB, probe.Delay+probe.Delay/20)); !v.Admitted {
		t.Fatal(v.Reason)
	}
	audit.Reset()
	if v := c.Admit(flow("small", 64*units.KiBPerSec, units.KiB, 0)); !v.Admitted {
		t.Fatal(v.Reason)
	}

	last := rec.Snapshot(1)[0]
	if last.FlowID != "small" || last.VictimsChecked != 2 || last.VictimsScreened != 1 || last.VictimsCertified != 1 {
		t.Errorf("record %+v: want 2 victims considered, 1 screened, 1 certified", last)
	}
	if !strings.Contains(audit.String(), "victims_certified=1") {
		t.Errorf("audit line lacks victims_certified=1:\n%s", audit.String())
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if want := "\nnc_admit_victims_certified_total 1\n"; !strings.Contains(text.String(), want) {
		t.Errorf("scrape lacks %q", want)
	}
	if errs := obs.LintExposition(text.Bytes()); len(errs) > 0 {
		t.Errorf("exposition lint: %v", errs)
	}
	recheckAll(t, c, "end")
}

// Stored θ-vectors are written by commits and read by Recheck and
// revalidation under the registry read lock; run them side by side (this
// test is for the race detector).
func TestTightRecheckConcurrentWithCommits(t *testing.T) {
	c := goldenPlatform(t, core.RungTight)
	flow := func(i int) admit.Flow {
		rate := units.Rate(1+i%4) * units.MiBPerSec
		return admit.Flow{ID: fmt.Sprintf("f%02d", i), Path: []string{"ingest", "transcode", "egress"},
			Arrival: core.Arrival{Rate: rate, Burst: 32 * units.KiB, MaxPacket: 1500,
				Extra: []core.Bucket{{Rate: rate.Mul(4), Burst: 8 * units.KiB}}},
			SLO: admit.SLO{MaxDelay: 200 * time.Millisecond}}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, af := range c.Flows() {
					c.Recheck(af.Flow.ID) // a flow released meanwhile is an error, not a failure
				}
				if _, err := c.RevalidateAll(admit.RevalidateOptions{
					Replay: admit.ReplayOptions{Total: 64 * units.KiB}, Workers: 2}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 24; i++ {
		c.Admit(flow(i))
		if i%3 == 2 {
			c.Release(fmt.Sprintf("f%02d", i-1))
		}
	}
	close(done)
	wg.Wait()
	recheckAll(t, c, "end")
}
