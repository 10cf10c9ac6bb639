package admit

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

// TestConcurrentAdmitRelease hammers one controller with 64 goroutines
// admitting, querying, and releasing flows concurrently (run under -race).
// Afterwards every reservation must be gone and the residual state must
// equal the pristine platform.
func TestConcurrentAdmitRelease(t *testing.T) {
	const (
		workers = 64
		rounds  = 25
	)
	nodes := make([]core.Node, 8)
	names := make([]string, 8)
	for i := range nodes {
		names[i] = fmt.Sprintf("n%d", i)
		nodes[i] = core.Node{
			Name: names[i], Rate: 400 * units.MiBPerSec, Latency: 100 * time.Microsecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB,
		}
	}
	c, err := New("stress", nodes)
	if err != nil {
		t.Fatal(err)
	}
	pristine := make(map[string]Residual)
	for _, n := range names {
		r, err := c.ResidualService(n)
		if err != nil {
			t.Fatal(err)
		}
		pristine[n] = r
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Each worker walks a different subchain of the platform.
				from := (g + i) % (len(names) - 1)
				to := from + 1 + (g+i)%(len(names)-from-1) + 1
				f := Flow{
					ID:      fmt.Sprintf("g%d-%d", g, i),
					Arrival: core.Arrival{Rate: units.Rate(1+g%5) * units.MiBPerSec, Burst: 16 * units.KiB, MaxPacket: 4 * units.KiB},
					Path:    names[from:to],
					SLO:     SLO{MaxDelay: time.Second, MaxBacklog: 64 * units.MiB},
				}
				v := c.Admit(f)
				// Interleave queries with mutations.
				if _, err := c.ResidualService(names[(g+i)%len(names)]); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					c.Flows()
				}
				if v.Admitted {
					if !c.Release(f.ID) {
						t.Errorf("admitted flow %s vanished", f.ID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if n := len(c.Flows()); n != 0 {
		t.Fatalf("%d flows leaked after release", n)
	}
	for _, n := range names {
		r, err := c.ResidualService(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cross != pristine[n].Cross {
			t.Errorf("node %s: leaked cross traffic %+v", n, r.Cross)
		}
		if r.Rate != pristine[n].Rate || r.Latency != pristine[n].Latency {
			t.Errorf("node %s: residual differs from pristine", n)
		}
	}
}

// TestConcurrentCapacityNeverOversubscribed races Admit, AdmitBatch and
// Release lanes on one node and checks the committed reservations never
// exceed its service rate (the controller must enforce this regardless of
// interleaving), and that Epoch() advanced exactly once per committed
// transaction: the flows of one admission transaction share the epoch their
// verdicts were analysed at, so two transactions that analysed the same state
// and both committed would show as fewer distinct epochs than steps.
func TestConcurrentCapacityNeverOversubscribed(t *testing.T) {
	nodes := []core.Node{
		{Name: "shared", Rate: 100 * units.MiBPerSec, Latency: 100 * time.Microsecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB},
	}
	c, err := New("cap", nodes)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string) Flow {
		return Flow{
			ID:      id,
			Arrival: core.Arrival{Rate: 9 * units.MiBPerSec, Burst: 16 * units.KiB, MaxPacket: 4 * units.KiB},
			Path:    []string{"shared"},
			SLO:     SLO{MinThroughput: 9 * units.MiBPerSec},
		}
	}
	var mu sync.Mutex
	commits := make(map[uint64]struct{}) // epochs that admitted verdicts were analysed at
	releases := 0
	// Even lanes give back what they got, so later transactions commit too.
	tally := func(g int, vs ...Verdict) {
		for _, v := range vs {
			if !v.Admitted {
				continue
			}
			released := g%2 == 0 && c.Release(v.FlowID)
			mu.Lock()
			commits[v.Epoch] = struct{}{}
			if released {
				releases++
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%4 == 3 {
				tally(g, c.AdmitBatch([]Flow{mk(fmt.Sprintf("w%d-x", g)), mk(fmt.Sprintf("w%d-y", g)), mk(fmt.Sprintf("w%d-z", g))})...)
			} else {
				tally(g, c.Admit(mk(fmt.Sprintf("w%d", g))))
			}
		}(g)
	}
	wg.Wait()

	r, err := c.ResidualService("shared")
	if err != nil {
		t.Fatal(err)
	}
	admitted := len(c.Flows())
	if len(commits) == 0 {
		t.Fatal("no flow admitted at all")
	}
	if float64(r.Cross.Rate) >= float64(100*units.MiBPerSec) {
		t.Fatalf("committed %d flows oversubscribe the node: cross %v", admitted, r.Cross.Rate)
	}
	// 9 MiB/s tenants on a 100 MiB/s node: at most 11 can hold their
	// min_throughput SLO.
	if admitted > 11 {
		t.Errorf("admitted %d tenants, capacity allows at most 11", admitted)
	}
	if got, want := c.Epoch(), uint64(len(commits)+releases); got != want {
		t.Errorf("epoch %d after %d admission transactions and %d releases, want %d", got, len(commits), releases, want)
	}
}

// TestResidualServiceIsOneSnapshot: the hosted-flow listing and the
// aggregate of a Residual describe the same registry state, however the call
// interleaves with commits and releases. Writers churn identical flows on
// one node, whose aggregate is stored as bucket × members, so the comparison
// is exact. Run with -race.
func TestResidualServiceIsOneSnapshot(t *testing.T) {
	node := core.Node{Name: "n", Rate: 400 * units.MiBPerSec, CrossRate: 5 * units.MiBPerSec, Latency: 100 * time.Microsecond,
		JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB}
	c, err := New("snapshot", []core.Node{node})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string) Flow {
		return Flow{ID: id, Path: []string{"n"},
			Arrival: core.Arrival{Rate: units.MiBPerSec, Burst: 16 * units.KiB, MaxPacket: 4 * units.KiB}}
	}
	if v := c.Admit(mk("seed")); !v.Admitted {
		t.Fatal(v.Reason)
	}
	per := c.shards["n"].cross.terms[0].b.Rate

	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				if v := c.Admit(mk(id)); !v.Admitted || !c.Release(id) {
					t.Errorf("%s: admitted %t, or not released", id, v.Admitted)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	for reads := 0; !t.Failed(); reads++ {
		r, err := c.ResidualService("n")
		if err != nil {
			t.Error(err)
		} else if want := node.CrossRate + per*units.Rate(len(r.Flows)); r.Cross.Rate != want {
			t.Errorf("read %d: %d flows listed next to cross rate %v, want %v", reads, len(r.Flows), r.Cross.Rate, want)
		}
		select {
		case <-done:
			return
		default:
		}
	}
	<-done // the writers report on t: let them finish first
}
