package admit

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/units"
)

func isolationPlatform(t *testing.T) (*Controller, []string, []string) {
	t.Helper()
	var nodes []core.Node
	var aNames, bNames []string
	for i := 0; i < 3; i++ {
		a := fmt.Sprintf("a%d", i)
		b := fmt.Sprintf("b%d", i)
		aNames = append(aNames, a)
		bNames = append(bNames, b)
		for _, name := range []string{a, b} {
			nodes = append(nodes, core.Node{
				Name: name, Rate: 200 * units.MiBPerSec, Latency: 100 * time.Microsecond,
				JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB,
			})
		}
	}
	c, err := New("isolation", nodes)
	if err != nil {
		t.Fatal(err)
	}
	return c, aNames, bNames
}

// TestDisjointPathEpochIsolation drives concurrent Admit/AdmitBatch/Release
// traffic over the a-side of a two-sided platform and asserts the b-side is
// completely untouched: the b nodes' cross traffic and the b-side flows are
// the same after the storm as before it, and the b-side hog is still
// refused. Run with -race.
func TestDisjointPathEpochIsolation(t *testing.T) {
	c, aNames, bNames := isolationPlatform(t)

	// Seed a b-side tenant, then refuse a b-side hog (its rate exceeds the
	// residual the tenant leaves).
	seed := Flow{
		ID:      "b-seed",
		Arrival: core.Arrival{Rate: 50 * units.MiBPerSec, Burst: 64 * units.KiB, MaxPacket: 4 * units.KiB},
		Path:    bNames,
		SLO:     SLO{MaxDelay: time.Second},
	}
	if v := c.Admit(seed); !v.Admitted {
		t.Fatalf("seed not admitted: %s", v.Reason)
	}
	hog := Flow{
		ID:      "b-hog",
		Arrival: core.Arrival{Rate: 180 * units.MiBPerSec, Burst: 64 * units.KiB, MaxPacket: 4 * units.KiB},
		Path:    bNames,
		SLO:     SLO{MaxDelay: time.Second},
	}
	refused := c.Admit(hog)
	if refused.Admitted {
		t.Fatalf("hog unexpectedly admitted")
	}
	if v := c.Admit(hog); v != refused {
		t.Fatalf("second hog probe differs:\nfirst  %+v\nsecond %+v", refused, v)
	}

	bSide := func() (map[string]nodeCross, []AdmittedFlow) {
		c.mu.RLock()
		defer c.mu.RUnlock()
		cross := make(map[string]nodeCross)
		for _, n := range bNames {
			nc := c.shards[n].cross
			nc.terms = append([]crossTerm(nil), nc.terms...)
			cross[n] = nc
		}
		var flows []AdmittedFlow
		for _, id := range c.sortedFlowIDs() {
			if cs := c.flows[id]; cs.path[0] == bNames[0] {
				flows = append(flows, AdmittedFlow{Flow: cs.flowFor(id), Verdict: cs.verdict})
			}
		}
		return cross, flows
	}
	crossBefore, flowsBefore := bSide()
	epochBefore := c.Epoch()

	// Concurrent a-side storm: sequential admits, batch admits, releases.
	const workers = 16
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				mk := func(tag string) Flow {
					return Flow{
						ID:      fmt.Sprintf("a-%d-%d-%s", g, i, tag),
						Arrival: core.Arrival{Rate: units.Rate(1+g%3) * units.MiBPerSec, Burst: 16 * units.KiB, MaxPacket: 4 * units.KiB},
						Path:    aNames,
						SLO:     SLO{MaxDelay: time.Second},
					}
				}
				if g%2 == 0 {
					f := mk("s")
					if v := c.Admit(f); v.Admitted {
						c.Release(f.ID)
					}
				} else {
					f1, f2 := mk("x"), mk("y")
					for _, v := range c.AdmitBatch([]Flow{f1, f2}) {
						if v.Admitted {
							c.Release(v.FlowID)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if c.Epoch() == epochBefore {
		t.Errorf("epoch never advanced despite %d admits", workers*10)
	}
	crossAfter, flowsAfter := bSide()
	if !reflect.DeepEqual(crossAfter, crossBefore) {
		t.Errorf("b-side cross traffic moved:\nbefore %+v\nafter  %+v", crossBefore, crossAfter)
	}
	if !reflect.DeepEqual(flowsAfter, flowsBefore) {
		t.Errorf("b-side flows moved:\nbefore %+v\nafter  %+v", flowsBefore, flowsAfter)
	}
	if v := c.Admit(hog); v.Admitted {
		t.Errorf("hog admitted after storm")
	}
}

// TestConcurrentMatchesSerializedReplay runs a concurrent mix of
// Admit/AdmitBatch/Release and asserts the final registry state is
// bit-identical to a serialized replay of the same surviving set on a fresh
// controller: same flow count, same per-node cross traffic, same residual
// curves. Run with -race.
func TestConcurrentMatchesSerializedReplay(t *testing.T) {
	mkController := func() (*Controller, []string) {
		names := make([]string, 6)
		nodes := make([]core.Node, 6)
		for i := range nodes {
			names[i] = fmt.Sprintf("n%d", i)
			nodes[i] = core.Node{
				Name: names[i], Rate: 800 * units.MiBPerSec, Latency: 100 * time.Microsecond,
				JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB,
			}
		}
		c, err := New("replay", nodes)
		if err != nil {
			t.Fatal(err)
		}
		return c, names
	}

	c, names := mkController()
	const workers = 16

	// Each worker admits 4 flows (two sequential, two via one batch) on its
	// own subchain, then releases its even-numbered ones. Ample capacity: if
	// anything is rejected the test setup is wrong, and the surviving set is
	// a deterministic function of (worker, index).
	mk := func(g, i int) Flow {
		from := g % (len(names) - 2)
		return Flow{
			ID:      fmt.Sprintf("g%d-%d", g, i),
			Arrival: core.Arrival{Rate: units.Rate(1+g%4) * units.MiBPerSec, Burst: units.Bytes(16+4*(i%2)) * units.KiB, MaxPacket: 4 * units.KiB},
			Path:    names[from : from+3],
			SLO:     SLO{MaxDelay: time.Second},
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, v := range []Verdict{c.Admit(mk(g, 0)), c.Admit(mk(g, 1))} {
				if !v.Admitted {
					t.Errorf("flow %s rejected: %s", v.FlowID, v.Reason)
				}
			}
			for _, v := range c.AdmitBatch([]Flow{mk(g, 2), mk(g, 3)}) {
				if !v.Admitted {
					t.Errorf("flow %s rejected in batch: %s", v.FlowID, v.Reason)
				}
			}
			for i := 0; i < 4; i += 2 {
				if !c.Release(fmt.Sprintf("g%d-%d", g, i)) {
					t.Errorf("release g%d-%d failed", g, i)
				}
			}
		}(g)
	}
	wg.Wait()

	// Serialized replay: the same surviving set admitted one by one.
	ref, _ := mkController()
	for g := 0; g < workers; g++ {
		for i := 1; i < 4; i += 2 {
			if v := ref.Admit(mk(g, i)); !v.Admitted {
				t.Fatalf("replay rejected %s: %s", v.FlowID, v.Reason)
			}
		}
	}

	if got, want := c.FlowCount(), ref.FlowCount(); got != want {
		t.Fatalf("flow count %d, serialized replay has %d", got, want)
	}
	for _, n := range names {
		rc, err := c.ResidualService(n)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ref.ResidualService(n)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Cross != rr.Cross {
			t.Errorf("node %s: cross %+v, serialized replay %+v", n, rc.Cross, rr.Cross)
		}
		if !rc.Curve.Equal(rr.Curve) {
			t.Errorf("node %s: residual curve differs from serialized replay", n)
		}
	}
}
