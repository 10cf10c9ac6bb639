package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/obs"
)

// The traced run produces the per-layer metrics. It never feeds an
// end-to-end metric: those come from the untraced run, so tracing cannot
// slow what they measure. Spans are recorded from here, around the calls
// into each layer; spans inside the product are a later change.

// traceMix exercises every op kind on every workload, so each per-layer
// metric exists whatever the workload's own mix is.
var traceMix = [numKinds]float64{opAdmit: 30, opRelease: 25, opRecheck: 20, opReject: 15, opNoop: 10}

const serialMaxOps = 1200

// serialOp is what the daemon answered to one op of the serial pass.
type serialOp struct {
	kind   opKind
	status int
	root   int // its http.<kind> span
}

func runTraced(e *env, w *workload, seed uint64) (*runResult, error) {
	res := newRunResult(w, seed, true)
	pop := newPopulation(w, seed)
	batches := pop.preloadBatches()
	tr := newTracer(w.name)

	batchRoots, ops, err := tracedDaemon(e, pop, batches, tr, res)
	if err != nil {
		return nil, err
	}
	c, err := tracedTwins(e, pop, batches, tr, batchRoots, ops, res)
	if err != nil {
		return nil, err
	}
	spanMetrics(tr, pop, ops, res)
	if err := probeLayers(e, pop, c, batches, res); err != nil {
		return nil, err
	}
	res.set("driver.build_s", e.buildS, "s")
	return res, tr.write(filepath.Join(e.outDir, "trace-"+w.name+".json"))
}

// laneFlows hands preload flow i to lane i mod n, as the untraced run does.
func laneFlows(lanes []*lane, admitted []bool) {
	for i, ok := range admitted {
		if ok {
			l := lanes[i%len(lanes)]
			l.live = append(l.live, preloadID(i))
		}
	}
}

// tracedDaemon runs the daemon half: preload (one http.batch span each), the
// serial pass of lane 0 over one connection (one http.<kind> span each), then
// an open and a closed stage on the other lanes so the daemon's own counters
// and flight recorder reflect concurrent traffic, then the scrapes.
func tracedDaemon(e *env, pop *population, batches []string, tr *tracer, res *runResult) ([]int, []serialOp, error) {
	w := pop.w
	d, err := e.spawn(pop.platform, w.name+"-traced")
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	pid := d.cmd.Process.Pid

	rr := ramp(d.base, pop, batches, tr)
	res.absorb(rr.fails, len(batches))
	res.set("ncadmitd.batch_rtt_us_per_flow", rr.wallS*1e6/float64(rr.offered), "us")

	mix := w.mix
	if w.bulk {
		mix = traceMix
	}
	lanes := make([]*lane, e.callers(w)+1)
	for i := range lanes {
		cl := newClient(d.base)
		defer cl.close()
		m := mix
		if i == 0 {
			m = traceMix
		}
		lanes[i] = newLane(i, httpBackend{cl}, pop, m)
	}
	laneFlows(lanes, rr.admitted)

	serial := lanes[0]
	serial.tr = tr
	var ops []serialOp
	for start := time.Now(); len(ops) < serialMaxOps && time.Since(start) < e.shape.serialBudget; {
		kind, status := serial.issue(serial.pl.next())
		ops = append(ops, serialOp{kind: kind, status: status, root: serial.lastSpan})
	}
	res.set("ncadmitd.req_bytes_per_op", float64(serial.reqBytes)/float64(len(ops)), "B")
	res.set("ncadmitd.resp_bytes_per_op", float64(serial.respBytes)/float64(len(ops)), "B")
	res.note("serial_ops", "%d", len(ops))

	var open stageResult
	if w.openRate > 0 {
		open = runStage(lanes[1:], pid, e.shape.tracedStage, w.openRate)
	}
	closed := runStage(lanes[1:], pid, e.shape.tracedStage, 0)
	// bulk_ramp has no open loop: its generator metrics read 0.
	late, achieved := 0.0, 0.0
	if w.openRate > 0 {
		late, achieved = percentile(open.lateMs, 0.99), float64(open.ops())/open.wallS
	}
	res.set("driver.late_p99_ms", late, "ms")
	res.set("driver.offered_ops_per_s", w.openRate, "ops/s")
	res.set("driver.achieved_ops_per_s", achieved, "ops/s")
	res.set("driver.cpu_share", (open.driverS+closed.driverS)/(open.wallS+closed.wallS), "ratio")

	cl := newClient(d.base)
	defer cl.close()
	if err := scrapeDaemon(cl, res); err != nil {
		return nil, nil, err
	}
	held := 0
	for _, l := range lanes {
		held += len(l.live)
		res.absorb(l.fails, l.attempted)
	}
	checkLedger(cl, held, res)
	return rr.spans, ops, nil
}

// decision is the part of a flight-recorder record the benchmark reads. A
// field the daemon does not serve decodes as zero and its metric reads 0.
type decision struct {
	Kind   string `json:"kind"`
	Phases []struct {
		Phase string `json:"phase"`
		Dur   int64  `json:"dur_ns"`
	} `json:"phases"`
	Retries        int  `json:"retries"`
	Fallback       bool `json:"fallback"`
	GroupSize      int  `json:"group_size"`
	VictimsChecked int  `json:"victims_checked"`
	RungCombos     int  `json:"rung_combos"`
	RungPruned     int  `json:"rung_pruned"`
}

var recorderPhases = []string{"precheck", "queue_wait", "analysis", "victim_sweep", "validate_commit", "handoff"}

// scrapeDaemon reads what the daemon reports about itself after the
// concurrent stages: /healthz counters, the flight recorder, and the cost of
// the scrapes themselves.
func scrapeDaemon(cl *client, res *runResult) error {
	var rtts []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := getHealth(cl); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	res.set("ncadmitd.healthz_rtt_us", median(rtts), "us")
	var scrapes []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		status, _, err := cl.do("GET", "/metrics", "")
		if err != nil || status != 200 {
			return fmt.Errorf("GET /metrics: status %d: %v", status, err)
		}
		scrapes = append(scrapes, float64(time.Since(t0))/1e6)
	}
	res.set("ncadmitd.metrics_scrape_ms", median(scrapes), "ms")

	h, err := getHealth(cl)
	if err != nil {
		return err
	}
	res.set("admit.verdict_cache_hit_share", h.Caches.Verdict.share(), "ratio")
	res.set("admit.analysis_memo_hit_share", h.Caches.Analysis.share(), "ratio")
	res.set("admit.curve_memo_hit_share", h.Caches.CurveOps.share(), "ratio")
	res.set("admit.commit_conflicts", float64(h.CommitConflicts), "count")
	res.set("admit.classes", float64(h.Classes), "count")
	res.set("admit.flows", float64(h.Flows), "count")

	var dec struct {
		Records []decision `json:"records"`
	}
	status, resp, err := cl.do("GET", "/debug/decisions", "")
	if err != nil {
		return err
	}
	if status == 200 {
		if err := json.Unmarshal(resp, &dec); err != nil {
			return fmt.Errorf("/debug/decisions: %w", err)
		}
	}
	phases := map[string][]float64{}
	var victims, groups []float64
	retries, fallbacks, combos, pruned, admits := 0, 0, 0, 0, 0
	for _, r := range dec.Records {
		if r.Kind != "admit" {
			continue
		}
		admits++
		for _, p := range r.Phases {
			phases[p.Phase] = append(phases[p.Phase], float64(p.Dur)/1e3)
		}
		victims = append(victims, float64(r.VictimsChecked))
		if r.GroupSize > 0 {
			groups = append(groups, float64(r.GroupSize))
		}
		retries += r.Retries
		if r.Fallback {
			fallbacks++
		}
		combos += r.RungCombos
		pruned += r.RungPruned
	}
	orZero := func(v float64) float64 {
		if v != v { // NaN: nothing recorded
			return 0
		}
		return v
	}
	for _, p := range recorderPhases {
		res.set("admit.phase."+p+"_us_p50", orZero(median(phases[p])), "us")
	}
	res.set("admit.victims_checked_mean", orZero(mean(victims)), "count")
	res.set("admit.group_size_mean", orZero(mean(groups)), "count")
	perK := 1000 / float64(max(admits, 1))
	res.set("admit.retries_per_kop", float64(retries)*perK, "1/kop")
	res.set("admit.fallbacks_per_kop", float64(fallbacks)*perK, "1/kop")
	res.set("admit.rung_pruned_share", float64(pruned)/float64(max(combos+pruned, 1)), "ratio")
	res.note("recorder_admits", "%d", admits)
	return nil
}

// tracedTwins replays the serial pass on three in-process twins in
// lockstep, so host noise falls on all three alike: traced, untraced, and
// traced with the obs registry and flight recorder attached. Only the first
// has the daemon's exact platform and must answer as the daemon did; the
// other two are bumped off its curve digests. The traced twin's spec.parse and
// admit.<kind> spans become children of the daemon's http.<kind> span of the
// same op. It returns the traced twin's controller for the probes.
func tracedTwins(e *env, pop *population, batches []string, tr *tracer, batchRoots []int, ops []serialOp, res *runResult) (*admit.Controller, error) {
	trObs := newTracer(pop.w.name)
	type twin struct {
		be   *twinBackend
		lane *lane
		wall time.Duration
	}
	var twins [3]twin
	var heapBefore, heapAfter runtime.MemStats
	for k, t := range []*tracer{tr, nil, trObs} {
		if k == 1 {
			runtime.GC()
			runtime.ReadMemStats(&heapBefore)
		}
		c, err := newTwin(pop, k)
		if err != nil {
			return nil, err
		}
		if k == 2 {
			c.EnableObsOpts(obs.NewRegistry(), admit.ObsOptions{})
			c.EnableFlightRecorder(1024)
		}
		var roots []int
		if k == 0 {
			roots = batchRoots
		}
		admitted, err := preloadTwin(c, pop, batches, t, roots)
		if err != nil {
			return nil, err
		}
		if k == 1 {
			runtime.GC()
			runtime.ReadMemStats(&heapAfter)
			n := 0
			for _, ok := range admitted {
				if ok {
					n++
				}
			}
			res.set("admit.bytes_per_flow", float64(heapAfter.HeapAlloc-heapBefore.HeapAlloc)/float64(max(n, 1)), "B")
		}
		be := &twinBackend{c: c, tr: t, parent: -1}
		l := newLane(0, be, pop, traceMix)
		// Lane 0 of C+1, as on the daemon.
		for i := 0; i < len(admitted); i += e.callers(pop.w) + 1 {
			if admitted[i] {
				l.live = append(l.live, preloadID(i))
			}
		}
		twins[k] = twin{be: be, lane: l}
	}

	for i, want := range ops {
		for r := 0; r < len(twins); r++ {
			k := (i + r) % len(twins)
			t := &twins[k]
			t.be.opID = i
			if k == 0 {
				t.be.parent = want.root
				tr.rebase(want.root)
			}
			t0 := time.Now()
			kind, status := t.lane.issue(t.lane.pl.next())
			t.wall += time.Since(t0)
			if k == 0 && (kind != want.kind || status != want.status) {
				res.fail("op %d: daemon answered %s with %d, its twin %s with %d", i, want.kind, want.status, kind, status)
			}
		}
	}
	for _, t := range twins {
		res.absorb(t.lane.fails, t.lane.attempted)
	}
	res.set("driver.trace_overhead_share", float64(twins[0].wall-twins[1].wall)/float64(twins[1].wall), "ratio")

	plain := spanDurations(tr.spans, "admit.admit")
	attached := spanDurations(trObs.spans, "admit.admit")
	res.set("obs.attach_overhead_us_per_admit", (median(attached)-median(plain))/1e3, "us")

	// Cached rejects and allocations per admit, on the untraced twin.
	c := twins[1].be.c
	rejectFlow, err := parseOne(flowBody("probe-reject", pop.rejects[0]))
	if err != nil {
		return nil, err
	}
	c.Admit(rejectFlow)
	var cached []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		v := c.Admit(rejectFlow)
		cached = append(cached, float64(time.Since(t0)))
		if v.Admitted {
			res.fail("twin admitted an over-SLO spec")
			break
		}
	}
	res.set("admit.reject_cached_ns_p50", median(cached), "ns")
	var m0, m1 runtime.MemStats
	var mallocs uint64
	const allocAdmits = 32
	for i := 0; i < allocAdmits; i++ {
		f, err := parseOne(flowBody(fmt.Sprintf("probe-alloc-%d", i), pop.classes[i%len(pop.classes)].tail))
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m0)
		v := c.Admit(f)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if v.Admitted {
			c.Release(f.ID)
		}
	}
	res.set("admit.allocs_per_admit", float64(mallocs)/allocAdmits, "count")
	return twins[0].be.c, nil
}

// spanDurations returns the durations in ns of the spans called name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// spanMetrics derives the span-based metrics: round trips per op kind from
// the daemon pass, admit-layer timings from the twin, and ncadmitd's self
// time as its HTTP span minus the spec and admit children.
func spanMetrics(tr *tracer, pop *population, ops []serialOp, res *runResult) {
	self := selfTimes(tr.spans)
	us := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs) / 1e3
	}
	for k := opKind(0); k < numKinds; k++ {
		res.set("ncadmitd."+k.String()+"_rtt_us_p50", us(spanDurations(tr.spans, "http."+k.String())), "us")
	}
	for _, k := range []opKind{opAdmit, opRelease, opRecheck} {
		var xs []float64
		for _, o := range ops {
			if o.kind == k {
				xs = append(xs, float64(self[o.root]))
			}
		}
		res.set("ncadmitd."+k.String()+"_self_us", us(xs), "us")
	}
	batchSelf := 0.0
	for i, s := range tr.spans {
		if s.Name == "http.batch" {
			batchSelf += float64(self[i])
		}
	}
	res.set("ncadmitd.batch_self_us_per_flow", batchSelf/1e3/float64(len(pop.preload)), "us")

	admits := spanDurations(tr.spans, "admit.admit")
	sort.Float64s(admits)
	res.set("admit.admit_us_p50", us(admits), "us")
	used, tail := tailOrMax(admits, 0.99)
	res.set("admit.admit_us_tail", tail/1e3, "us")
	res.note("admit_us_tail", "p%.4g of %d admits", used*100, len(admits))
	res.set("admit.release_us_p50", us(spanDurations(tr.spans, "admit.release")), "us")
	res.set("admit.recheck_us_p50", us(spanDurations(tr.spans, "admit.recheck")), "us")

	var batchParse, batchAdmit float64
	for _, s := range tr.spans {
		switch s.Name {
		case "spec.parse_batch":
			batchParse += float64(s.dur())
		case "admit.batch":
			batchAdmit += float64(s.dur())
		}
	}
	res.set("spec.parse_flow_ns", median(spanDurations(tr.spans, "spec.parse")), "ns")
	res.set("spec.parse_batch_ns_per_flow", batchParse/float64(len(pop.preload)), "ns")
	res.set("admit.batch_ns_per_flow", batchAdmit/float64(len(pop.preload)), "ns")

	var layers []string
	seen := map[string]bool{}
	for _, s := range tr.spans {
		if !seen[s.Layer] {
			seen[s.Layer] = true
			layers = append(layers, s.Layer)
		}
	}
	res.note("trace", "%d spans over layers %s", len(tr.spans), strings.Join(layers, ", "))
}
