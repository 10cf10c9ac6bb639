package admit_test

import (
	"fmt"
	"testing"

	"streamcalc/internal/admit"
	"streamcalc/internal/gen"
	"streamcalc/internal/load"
)

// BenchmarkDecideWide times one admission decision where it is widest: 64
// classes over the 3-node streaming paths, all sharing ingest and egress, so
// every admit re-analyses every class. 50 000 flows are preloaded; each
// iteration admits a fresh flow of the next class in rotation and releases
// an older flow of a popularity-drawn class, so the population drifts and no
// pipeline recurs.
func BenchmarkDecideWide(b *testing.B) {
	const preload = 50000
	sc := load.DefaultScenario(preload)
	pop, err := gen.NewPopulation(sc.Spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := sc.Sized(pop, preload, 3).Controller()
	if err != nil {
		b.Fatal(err)
	}
	for i, v := range c.AdmitBatch(pop.Flows(0, preload)) {
		if !v.Admitted {
			b.Fatalf("preload flow %d rejected: %s", i, v.Reason)
		}
	}
	tpls := pop.Templates()
	if c.ClassCount() != len(tpls) {
		b.Fatalf("preload holds %d classes, want %d", c.ClassCount(), len(tpls))
	}
	fresh := func(i int) string { return fmt.Sprintf("w%08d", i) }

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpl := tpls[i%len(tpls)]
		f := admit.Flow{ID: fresh(i), Arrival: tpl.Arrival, Path: tpl.Path, SLO: tpl.SLO}
		if v := c.Admit(f); !v.Admitted {
			b.Fatalf("admit %d: %+v", i, v)
		}
		old := gen.FlowID(i)
		if i >= preload {
			old = fresh(i - preload)
		}
		if !c.Release(old) {
			b.Fatalf("release %s: not admitted", old)
		}
	}
}
