package admit_test

import (
	"fmt"
	"testing"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/gen"
)

// TestVerdictCacheNeverStale drives the golden programs at every rung and,
// after every step, re-decides each verdict-cache entry valid at the current
// epoch: a cached refusal must be exactly what a fresh decision of the same
// question answers now. After a release no entry may be valid at all.
func TestVerdictCacheNeverStale(t *testing.T) {
	const (
		rampN  = 36
		batchN = 12
		churnN = 90
	)
	for _, rung := range []core.Rung{core.RungBlind, core.RungFIFO, core.RungTight} {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s-seed%d", rung, seed), func(t *testing.T) {
				c := goldenPlatform(t, rung)
				pop, err := gen.NewPopulation(goldenSpec(), seed)
				if err != nil {
					t.Fatal(err)
				}
				var offered []admit.Flow
				checked := 0
				check := func(step string) {
					t.Helper()
					stored, fresh, valid := c.RedecideCache(offered)
					if len(stored) != valid {
						t.Fatalf("%s: re-decided %d of %d valid entries", step, len(stored), valid)
					}
					for i := range stored {
						if stored[i].Cached {
							t.Errorf("%s: entry stored as cached: %+v", step, stored[i])
						}
						if fresh[i] != stored[i] {
							t.Errorf("%s: stale entry\nstored %+v\nfresh  %+v", step, stored[i], fresh[i])
						}
					}
					checked += valid
				}

				for lo := 0; lo < rampN; lo += batchN {
					flows := pop.Flows(lo, lo+batchN)
					offered = append(offered, flows...)
					c.AdmitBatch(flows)
					check(fmt.Sprintf("batch@%d", lo))
				}
				for i, op := range pop.PlanOps(rampN, churnN) {
					step := fmt.Sprintf("op %d (%s)", i, op.Kind)
					switch op.Kind {
					case gen.OpAdmit:
						offered = append(offered, op.Flow)
						c.Admit(op.Flow)
					case gen.OpRelease:
						if c.Release(op.ID) {
							if _, _, valid := c.RedecideCache(offered); valid != 0 {
								t.Errorf("%s: %d entries still valid after a release", step, valid)
							}
						}
					case gen.OpRecheck:
						c.Recheck(op.ID)
					}
					check(step)
				}
				if checked == 0 {
					t.Error("no cache entry was ever valid: the program never exercised the cache")
				}
			})
		}
	}
}
