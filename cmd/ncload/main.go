// Command ncload is the in-process scale check of the admission controller.
// By default it ramps a generated tenant population into a controller in
// transactional batches — a million flows unless -flows says otherwise —
// and reports the ramp rate and the registry and heap it leaves as JSON.
// With -rungsweep it runs the FIFO-ladder acceptance sweep instead and exits
// non-zero when the ladder does not hold.
//
// Usage:
//
//	ncload -flows 1000000 -out results/loadtest_1m.json
//	ncload -rungsweep -out results/rung_sweep.json
//	ncload -example-spec > population.json
//	ncload -example-platform > platform.json
//
// The ramp is deterministic at the request level: the same population spec,
// seed and flow target offer the same flows in the same batches.
//
// With no -platform, the built-in scenario sizes a three-node streaming
// platform so the expected demand of -flows heavy-tailed flows fills half
// of each node's capacity; with no -spec, the built-in heavy-tailed
// population spec is used. Request-level load against a running ncadmitd
// is the repository's benchmark (bench/).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"streamcalc/internal/admit"
	"streamcalc/internal/gen"
	"streamcalc/internal/load"
	"streamcalc/internal/spec"
)

func main() {
	var (
		platformPath = flag.String("platform", "", "platform JSON (default: built-in scenario sized for -flows)")
		specPath     = flag.String("spec", "", "population spec JSON (default: built-in heavy-tailed spec)")
		flows        = flag.Int("flows", 1_000_000, "registered-flow target of the ramp")
		batch        = flag.Int("batch", 16384, "ramp transaction size")
		workers      = flag.Int("workers", 0, "concurrent ramp batches (0 = GOMAXPROCS)")
		seed         = flag.Uint64("seed", 1, "population seed (same spec+seed+flows = same batches); -rungsweep's replay seed")
		out          = flag.String("out", "", "write the JSON report to this file (default stdout)")
		quiet        = flag.Bool("q", false, "suppress progress lines on stderr")
		rungSweep    = flag.Bool("rungsweep", false, "run the FIFO-ladder comparison sweep instead of the ramp (fills a shared node at each analysis rung, asserts tight admits strictly more than blind with zero replay violations)")
		exampleSpec  = flag.Bool("example-spec", false, "print the built-in population spec and exit")
		examplePlat  = flag.Bool("example-platform", false, "print the built-in platform (sized for -flows) and exit")
	)
	flag.Parse()

	var logf func(format string, args ...any)
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ncload: "+format+"\n", args...)
		}
	}

	if *rungSweep {
		rep, err := load.RungSweep(load.RungSweepConfig{Replay: admit.ReplayOptions{Seed: *seed}, Logf: logf})
		if err != nil {
			fail(err)
		}
		writeJSON(*out, rep)
		if err := rep.Check(); err != nil {
			fail(err)
		}
		return
	}

	sc := load.DefaultScenario(*flows)
	scenarioName := sc.Name

	if *exampleSpec {
		writeJSON("", sc.Spec)
		return
	}

	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fail(err)
		}
		ps, err := gen.ParsePopulationSpec(data)
		if err != nil {
			fail(err)
		}
		sc.Spec = ps
		scenarioName = *specPath
	}

	pop, err := gen.NewPopulation(sc.Spec, *seed)
	if err != nil {
		fail(err)
	}
	// Resize the built-in platform against the realized template mix (the
	// spec's analytic mean undersizes under heavy-tailed template draws).
	sc = sc.Sized(pop, *flows, 2.0)

	if *examplePlat {
		writeJSON("", wirePlatform(sc))
		return
	}

	var c *admit.Controller
	if *platformPath != "" {
		data, err := os.ReadFile(*platformPath)
		if err != nil {
			fail(err)
		}
		pl, err := spec.ParsePlatform(data)
		if err != nil {
			fail(err)
		}
		if c, err = pl.Controller(); err != nil {
			fail(err)
		}
		scenarioName = pl.Name
	} else if c, err = sc.Controller(); err != nil {
		fail(err)
	}

	rep, err := load.Run(load.Config{
		Controller: c,
		Pop:        pop,
		Flows:      *flows,
		BatchSize:  *batch,
		Workers:    *workers,
		Logf:       logf,
	})
	if err != nil {
		fail(err)
	}
	rep.Scenario = scenarioName
	rep.Seed = *seed
	writeJSON(*out, rep)
}

// wirePlatform renders a scenario's node set in the ncadmitd platform JSON
// dialect, so `-example-platform > p.json` feeds both ncadmitd -platform and
// ncload -platform.
func wirePlatform(sc load.Scenario) spec.Platform {
	p := spec.Platform{Name: sc.Name}
	for _, n := range sc.Nodes {
		p.Nodes = append(p.Nodes, spec.Node{
			Name:      n.Name,
			Rate:      n.Rate,
			Latency:   n.Latency.String(),
			JobIn:     n.JobIn,
			JobOut:    n.JobOut,
			MaxPacket: n.MaxPacket,
		})
	}
	return p
}

// writeJSON writes v as indented JSON to path, or to stdout when path is
// empty.
func writeJSON(path string, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail(err)
	}
	body = append(body, '\n')
	if path == "" {
		_, err = os.Stdout.Write(body)
	} else {
		err = os.WriteFile(path, body, 0o644)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ncload:", err)
	os.Exit(1)
}
