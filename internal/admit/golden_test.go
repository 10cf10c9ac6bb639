package admit_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/gen"
	"streamcalc/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's answers")

// goldenTol is the relative tolerance on the numeric verdict fields: a
// refactor may reorder a floating-point cross-traffic sum, nothing more.
const goldenTol = 1e-9

// goldenPlatform is a three-stage platform small enough that a few dozen
// population flows exhaust it, so the programs meet every rejection kind
// (saturation, the flow's own SLO, a victim's SLO). One-packet jobs at every
// stage: no node collects more than its upstream delivers, so none charges a
// job-fill latency.
func goldenPlatform(t *testing.T, rung core.Rung) *admit.Controller {
	t.Helper()
	node := func(name string, rate units.Rate, lat time.Duration) core.Node {
		return core.Node{Name: name, Rate: rate, Latency: lat,
			JobIn: 1500, JobOut: 1500, MaxPacket: 1500}
	}
	c, err := admit.New("golden", []core.Node{
		node("ingest", 96*units.MiBPerSec, 200*time.Microsecond),
		node("transcode", 40*units.MiBPerSec, 500*time.Microsecond),
		node("egress", 64*units.MiBPerSec, 300*time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetRung(rung)
	return c
}

func goldenSpec() gen.PopulationSpec {
	return gen.PopulationSpec{
		Templates:    12,
		TemplateSkew: 0.8,
		RateDist:     gen.Dist{Kind: "pareto", Min: 256 << 10, Alpha: 1.4, Max: 12 << 20},
		BurstDist:    gen.Dist{Kind: "lognormal", Mu: math.Log(24 << 10), Sigma: 0.6},
		Paths:        [][]string{{"ingest", "transcode", "egress"}, {"ingest", "egress"}, {"transcode"}},
		PathSkew:     0.6,
		SLOTiers: []gen.SLOTier{
			{Weight: 0.5, MaxDelayMs: 400},
			{Weight: 0.3, MaxDelayMs: 40, MinThroughputFrac: 0.9},
			{Weight: 0.2, MaxDelayMs: 12, MaxBacklogBytes: 512 << 10},
		},
		Churn:   gen.ChurnMix{Admit: 0.5, Release: 0.3, Recheck: 0.2},
		Arrival: gen.ArrivalProcess{BaseRPS: 100},
	}
}

// goldenLine renders one step's answer. Numeric fields print with full
// precision so a golden file parses back to the exact parent value.
func goldenLine(op, id string, v admit.Verdict) string {
	dash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	return fmt.Sprintf("%s\t%s\t%t\t%s\t%s\t%s\t%d\t%s\t%s\t%s",
		op, id, v.Admitted, dash(v.Binding), dash(v.Bottleneck), dash(v.Rung), int64(v.Delay),
		strconv.FormatFloat(float64(v.Backlog), 'g', 17, 64),
		strconv.FormatFloat(float64(v.Throughput), 'g', 17, 64),
		strconv.FormatFloat(float64(v.HeadroomRate), 'g', 17, 64))
}

// runGoldenProgram drives one seeded program — a ramp through AdmitBatch,
// then planned churn through Admit/Release/Recheck — and returns one line
// per answer plus the surviving flow set. After every step the registry is
// revalidated against a simulated replay and every admitted flow is rechecked
// against its SLO by the exact analysis: an admission that breaks an earlier
// promise fails here whatever the goldens say.
func runGoldenProgram(t *testing.T, seed uint64, rung core.Rung) []string {
	t.Helper()
	const (
		rampN  = 36
		batchN = 12
		churnN = 90
	)
	c := goldenPlatform(t, rung)
	pop, err := gen.NewPopulation(goldenSpec(), seed)
	if err != nil {
		t.Fatal(err)
	}
	sound := func(step string) {
		t.Helper()
		rep, err := c.RevalidateAll(admit.RevalidateOptions{
			Replay: admit.ReplayOptions{Total: 512 * units.KiB, Seed: seed}, Workers: 1})
		if err != nil {
			t.Fatalf("%s: revalidate: %v", step, err)
		}
		for _, fr := range rep.Flows {
			for _, viol := range fr.Violations {
				t.Errorf("%s: flow %s: %s", step, fr.FlowID, viol)
			}
		}
		recheckAll(t, c, step)
	}

	var lines []string
	for lo := 0; lo < rampN; lo += batchN {
		for _, v := range c.AdmitBatch(pop.Flows(lo, lo+batchN)) {
			lines = append(lines, goldenLine("batch", v.FlowID, v))
		}
		sound(fmt.Sprintf("batch@%d", lo))
	}
	for i, op := range pop.PlanOps(rampN, churnN) {
		switch op.Kind {
		case gen.OpAdmit:
			lines = append(lines, goldenLine("admit", op.Flow.ID, c.Admit(op.Flow)))
		case gen.OpRelease:
			lines = append(lines, goldenLine("release", op.ID, admit.Verdict{Admitted: c.Release(op.ID)}))
		case gen.OpRecheck:
			v, err := c.Recheck(op.ID)
			if err != nil {
				v = admit.Verdict{Binding: "not_admitted"}
			}
			lines = append(lines, goldenLine("recheck", op.ID, v))
		}
		sound(fmt.Sprintf("op %d (%s)", i, op.Kind))
	}
	for _, af := range c.Flows() {
		lines = append(lines, "flow\t"+af.Flow.ID)
	}
	return lines
}

// sameGoldenLine compares one answer against its golden: everything that
// names a decision must match exactly, the four bounds within goldenTol.
func sameGoldenLine(got, want string) error {
	g, w := strings.Split(got, "\t"), strings.Split(want, "\t")
	if len(g) != len(w) {
		return fmt.Errorf("field count %d, golden has %d", len(g), len(w))
	}
	names := []string{"op", "id", "admitted", "binding", "bottleneck", "rung", "delay_ns", "backlog", "throughput", "headroom"}
	for i := range g {
		if g[i] == w[i] {
			continue
		}
		if i < 6 {
			return fmt.Errorf("%s = %q, golden has %q", names[i], g[i], w[i])
		}
		a, errA := strconv.ParseFloat(g[i], 64)
		b, errB := strconv.ParseFloat(w[i], 64)
		if errA != nil || errB != nil {
			return fmt.Errorf("%s = %q, golden has %q", names[i], g[i], w[i])
		}
		if math.Abs(a-b) > goldenTol*math.Max(math.Abs(a), math.Abs(b)) {
			return fmt.Errorf("%s = %s, golden has %s (beyond %g relative)", names[i], g[i], w[i], goldenTol)
		}
	}
	return nil
}

// TestGoldenPrograms is the differential test of the admission engine
// against the goldens in testdata/: the same programs must get the same
// decisions, bindings, bottlenecks, rungs and final flow sets, and the same
// bounds to within floating-point summation order. The blind and fifo
// goldens were written with -update by the commit that preceded the
// single-transaction refactor; the tight ones, later, at the engine of their
// own commit. A change that moves an answer on purpose rewrites its golden
// with -update, which keeps every line still within tolerance, and says
// which lines moved.
func TestGoldenPrograms(t *testing.T) {
	for _, rung := range []core.Rung{core.RungBlind, core.RungFIFO, core.RungTight} {
		for _, seed := range []uint64{1, 2, 3} {
			rung, seed := rung, seed
			name := fmt.Sprintf("%s-seed%d", rung, seed)
			t.Run(name, func(t *testing.T) {
				got := runGoldenProgram(t, seed, rung)
				path := filepath.Join("testdata", name+".golden")
				want, err := readGolden(path)
				if *update {
					if err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
					// Keep every golden line the answer still matches, so a
					// rewrite shows exactly the answers that moved.
					for i := range got {
						if i < len(want) && sameGoldenLine(got[i], want[i]) == nil {
							got[i] = want[i]
						}
					}
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d answers, golden has %d", len(got), len(want))
				}
				for i := range got {
					if err := sameGoldenLine(got[i], want[i]); err != nil {
						t.Errorf("line %d: %v\n got: %s\nwant: %s", i+1, err, got[i], want[i])
					}
				}
			})
		}
	}
}

// readGolden returns the lines of a golden file.
func readGolden(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}
