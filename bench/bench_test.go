package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// 1000 samples leave exactly 10 beyond p99.
	used, v, ok := tailPercentile(sorted, 0.99)
	if !ok || used != 0.99 || v != 990 {
		t.Errorf("p99 of 1000: used %v value %v ok %v, want 0.99, 990, true", used, v, ok)
	}
	// 500 samples leave 5 beyond p99: fall back to the percentile with 10.
	used, v, ok = tailPercentile(sorted[:500], 0.99)
	if !ok || v != 490 || used != 0.98 {
		t.Errorf("p99 of 500: used %v value %v ok %v, want 0.98, 490, true", used, v, ok)
	}
	if beyond := 500 - 490; beyond != tailMinBeyond {
		t.Errorf("fallback leaves %d samples beyond, want %d", beyond, tailMinBeyond)
	}
	// Too few samples for even a median with 10 beyond.
	if _, _, ok := tailPercentile(sorted[:19], 0.9); ok {
		t.Error("19 samples: want ok=false")
	}
}

func planBodies(w *workload, seed uint64, n int) (plan []op, bodies string) {
	pop := newPopulation(w, seed)
	pl := newPlanner(pop, 1, w.mix)
	var b strings.Builder
	b.WriteString(pop.platform)
	for _, batch := range pop.preloadBatches() {
		b.WriteString(batch)
	}
	for i := 0; i < n; i++ {
		o := pl.next()
		plan = append(plan, o)
		b.WriteString(o.body)
	}
	return plan, b.String()
}

func TestBetterQuartile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11, 12}
	if lo, hi := lowQuartile(xs), highQuartile(xs); lo != 3 || hi != 9 {
		t.Errorf("quartiles of 1..12 = %v, %v; want 3, 9", lo, hi)
	}
	three := []float64{2, 3, 1}
	if lo, hi := lowQuartile(three), highQuartile(three); lo != 1 || hi != 3 {
		t.Errorf("quartiles of three samples = %v, %v; want the best of three on either side", lo, hi)
	}
}

func TestSameSeedSamePlanAndBodies(t *testing.T) {
	for i := range workloads {
		w := workloads[i]
		w.preload = min(w.preload, 2000)
		if w.bulk {
			w.mix = traceMix
		}
		planA, bodiesA := planBodies(&w, 7, 500)
		planB, bodiesB := planBodies(&w, 7, 500)
		if !reflect.DeepEqual(planA, planB) || bodiesA != bodiesB {
			t.Errorf("%s: seed 7 twice gave different plans or bodies", w.name)
		}
		_, bodiesC := planBodies(&w, 8, 500)
		if bodiesA == bodiesC {
			t.Errorf("%s: seeds 7 and 8 gave identical bodies", w.name)
		}
	}
}

func TestPopulationShape(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		pop := newPopulation(w, 3)
		if len(pop.classes) != w.classes || len(pop.rejects) != numRejects {
			t.Fatalf("%s: %d classes, %d rejects", w.name, len(pop.classes), len(pop.rejects))
		}
		paths := make([]int, len(w.paths))
		tiers := make([]int, len(w.tiers))
		rates := map[float64]bool{}
		for _, c := range pop.classes {
			if rates[c.rate] {
				t.Errorf("%s: rate %v twice: the popularity stride does not visit every rate rank", w.name, c.rate)
			}
			rates[c.rate] = true
			paths[c.path]++
			tiers[c.tier]++
			if c.burst > burstMaxSeconds*c.rate+1 {
				t.Errorf("%s: burst %v over %v s of rate %v", w.name, c.burst, burstMaxSeconds, c.rate)
			}
		}
		for k, n := range paths {
			if n == 0 {
				t.Errorf("%s: no class on path %d", w.name, k)
			}
		}
		for k, n := range tiers {
			if n == 0 {
				t.Errorf("%s: no class in tier %d", w.name, k)
			}
		}
		// Which path and tier each popularity rank holds is the workload's, not
		// the seed's: only the values move with the seed.
		other := newPopulation(w, 4)
		for j, c := range pop.classes {
			if o := other.classes[j]; o.path != c.path || o.tier != c.tier {
				t.Errorf("%s: popularity rank %d is on path %d tier %d with seed 3, path %d tier %d with seed 4", w.name, j, c.path, c.tier, o.path, o.tier)
			}
		}
		var v struct{ Nodes []json.RawMessage }
		if err := json.Unmarshal([]byte(pop.platform), &v); err != nil || len(v.Nodes) != len(w.nodes) {
			t.Errorf("%s: platform JSON: %v (%d nodes)", w.name, err, len(v.Nodes))
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "http.admit", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "spec.parse", StartNs: 0, EndNs: 10, Parent: 0},
		{Name: "admit.admit", StartNs: 10, EndNs: 70, Parent: 0},
		{Name: "core.analyze", StartNs: 20, EndNs: 50, Parent: 2},
		// Overlapping children count once, and only inside the parent.
		{Name: "root2", StartNs: 200, EndNs: 300, Parent: -1},
		{Name: "a", StartNs: 210, EndNs: 260, Parent: 4},
		{Name: "b", StartNs: 240, EndNs: 320, Parent: 4},
	}
	want := []int64{30, 10, 30, 30, 10, 50, 80}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerRebaseAndNil(t *testing.T) {
	var none *tracer
	none.end(none.begin(0, "x", "y", -1)) // must not panic
	none.rebase(0)

	tr := newTracer("w")
	root := tr.begin(0, "ncadmitd", "http.admit", -1)
	tr.end(root)
	tr.spans[root].StartNs, tr.spans[root].EndNs = 1_000_000, 2_000_000
	tr.rebase(root)
	child := tr.begin(0, "admit", "admit.admit", root)
	tr.end(child)
	if d := tr.spans[child].StartNs - tr.spans[root].StartNs; d < 0 || d > 500_000 {
		t.Errorf("rebased child starts %d ns after its parent", d)
	}
}

// scriptBackend answers from a fixed list of statuses.
type scriptBackend struct {
	statuses []int
	calls    []string
}

func (s *scriptBackend) exec(kind opKind, id, body string) reply {
	st := s.statuses[0]
	s.statuses = s.statuses[1:]
	s.calls = append(s.calls, kind.String()+" "+id)
	return reply{status: st, v: verdict{FlowID: id, Admitted: st == 200, Delay: "1ms", Throughput: "1 GiB/s"}}
}

func TestLedger(t *testing.T) {
	w, _ := workloadByName("read_mostly")
	pop := newPopulation(w, 1)
	be := &scriptBackend{}
	l := newLane(0, be, pop, w.mix)
	admit := func(id string) op { return op{kind: opAdmit, id: id, body: flowBody(id, pop.classes[0].tail)} }
	step := func(o op, status int) opKind {
		be.statuses = []int{status}
		k, _ := l.issue(o)
		return k
	}

	// Nothing held: a release degrades to a probe of an unknown id.
	if k := step(op{kind: opRelease, pick: 5}, 404); k != opNoop {
		t.Errorf("release with nothing held ran as %s", k)
	}
	step(admit("a"), 200)
	step(admit("b"), 409) // a rejection is a valid answer
	step(admit("c"), 200)
	if got := append([]string(nil), l.live...); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("held %v, want [a c]", got)
	}
	step(op{kind: opRecheck, pick: 1}, 200)
	step(op{kind: opRelease, pick: 0}, 204)
	if !reflect.DeepEqual(l.live, []string{"c"}) || !reflect.DeepEqual(l.released, []string{"a"}) {
		t.Fatalf("after release: held %v released %v", l.live, l.released)
	}
	// The probe now targets the released id and must see 404.
	step(op{kind: opNoop, pick: 0}, 404)
	if last := be.calls[len(be.calls)-1]; last != "noop a" {
		t.Errorf("probe went to %q, want the released flow", last)
	}
	if l.fails.n != 0 {
		t.Fatalf("valid answers counted as failures: %v", l.fails.msgs)
	}

	// Statuses the ledger rules out.
	step(op{kind: opNoop, pick: 0}, 204)                      // 2xx on a released flow
	step(op{kind: opRecheck, pick: 0}, 404)                   // 404 on a registered flow
	step(op{kind: opRecheck, pick: 0}, 409)                   // promise no longer holds
	step(op{kind: opReject, id: "r", body: "{}"}, 200)        // over-SLO spec admitted
	step(op{kind: opRelease, pick: uint64(len(l.live))}, 404) // 404 on a registered flow
	if l.fails.n != 5 {
		t.Errorf("%d failures, want 5: %v", l.fails.n, l.fails.msgs)
	}
	if l.attempted != 12 {
		t.Errorf("attempted %d, want 12", l.attempted)
	}
}

func TestCheckPromise(t *testing.T) {
	w, _ := workloadByName("churn_wide")
	pop := newPopulation(w, 1)
	var c *class
	for i := range pop.classes {
		if pop.classes[i].minTput > 0 {
			c = &pop.classes[i]
		}
	}
	ok := verdict{FlowID: "f", Admitted: true, Delay: c.maxDelay.String(), Throughput: "64 GiB/s"}
	if msg := checkPromise(&ok, "f", c); msg != "" {
		t.Errorf("promise at the SLO rejected: %s", msg)
	}
	late := ok
	late.Delay = (c.maxDelay + 1).String()
	slow := ok
	slow.Throughput = "1 B/s"
	other := ok
	other.FlowID = "g"
	for _, v := range []verdict{late, slow, other} {
		if checkPromise(&v, "f", c) == "" {
			t.Errorf("broken promise accepted: %+v", v)
		}
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worsening(lower, 10, 11); got < 0.0999 || got > 0.1001 {
		t.Errorf("lower-is-better 10→11: %v", got)
	}
	if got := worsening(higher, 10, 9); got < 0.0999 || got > 0.1001 {
		t.Errorf("higher-is-better 10→9: %v", got)
	}
	if worsening(higher, 10, 12) >= 0 {
		t.Error("an improvement must not count as worse")
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, defs.go %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, defs.go has %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, defs.go has %+v", i, m, d)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(string(readme), "`"+d.Name+"`") {
			t.Errorf("README.md does not define %s", d.Name)
		}
	}
}

// TestSmoke runs every workload for about a second against a really spawned
// daemon, untraced and traced, and checks that each run produces exactly the
// metrics the contract lists and fails no operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ncadmitd")
	}
	cmd := exec.Command("go", "run", ".", "-smoke")
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		t.Fatalf("bench -smoke: %v\n%s", err, out)
	}
	rep, err := readReport("out/result.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want %d", len(rep.Runs), 2*len(workloads))
	}
	for _, run := range rep.Runs {
		defs := endToEnd
		if run.Traced {
			defs = perLayer
		}
		var missing []string
		for _, d := range defs {
			if m, ok := run.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				missing = append(missing, d.Name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s traced=%v: missing or mis-united metrics %v", run.Workload, run.Traced, missing)
		}
		if run.Failed != 0 || run.Attempted == 0 {
			t.Errorf("%s traced=%v: %d of %d operations failed: %v", run.Workload, run.Traced, run.Failed, run.Attempted, run.Failures)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat("out/trace-" + w.name + ".json"); err != nil {
			t.Errorf("no span file for %s: %v", w.name, err)
		}
	}
}
