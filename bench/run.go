package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Invalid   string            `json:"invalid,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are facts about the run that are not metrics: sample counts and
	// the tail percentile actually used.
	Notes map[string]string `json:"notes,omitempty"`
}

func (r *runResult) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runResult) note(name, format string, args ...any) {
	r.Notes[name] = fmt.Sprintf(format, args...)
}

func (r *runResult) absorb(f failures, attempted int) {
	r.Attempted += attempted
	r.Failed += f.n
	for _, m := range f.msgs {
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, m)
		}
	}
}

func (r *runResult) fail(format string, args ...any) {
	var f failures
	f.add(format, args...)
	r.absorb(f, 1)
}

func newRunResult(w *workload, seed uint64, traced bool) *runResult {
	return &runResult{Workload: w.name, Seed: seed, Traced: traced,
		Metrics: map[string]metric{}, Notes: map[string]string{}}
}

func selfCPUSeconds() float64 {
	s, _ := cpuSeconds(os.Getpid()) // /proc/self is always readable; 0 only skews driver.cpu_share
	return s
}

// openShare of the measured seconds go to the open-loop stage, the rest to
// the closed loop.
const openShare = 0.55

// replayer times POST /revalidate on side daemons holding the first
// shape.replayFlows preload flows. Its passes are spread over the run, one
// daemon after each measured daemon or ramp, because this host slows down
// for seconds at a time and a single block of passes can fall wholly inside
// such a spell.
type replayer struct {
	e     *env
	pop   *population
	body  string
	rates []float64
}

func newReplayer(e *env, pop *population) *replayer {
	return &replayer{e: e, pop: pop, body: pop.batch(0, min(e.shape.replayFlows, len(pop.preload)))}
}

// measure runs shape.replayRepeats passes on one fresh side daemon, for the
// first shape.instances calls.
func (rp *replayer) measure(res *runResult) error {
	if len(rp.rates) >= rp.e.shape.instances*rp.e.shape.replayRepeats {
		return nil
	}
	d, err := rp.e.spawn(rp.pop.platform, rp.pop.w.name+"-replay")
	if err != nil {
		return err
	}
	defer d.stop()
	cl := newClient(d.base)
	defer cl.close()
	if status, resp, err := cl.do("POST", "/admit/batch", rp.body); err != nil || status != 200 {
		return fmt.Errorf("replay preload: status %d: %v: %.200s", status, err, resp)
	}
	for r := 0; r < rp.e.shape.replayRepeats; r++ {
		flows, violations, wallS, err := revalidate(cl, rp.e.p)
		if err != nil {
			return err
		}
		res.Attempted++
		if violations > 0 {
			res.fail("revalidate: %d violations over %d flows", violations, flows)
		}
		if flows == 0 {
			return fmt.Errorf("replay daemon holds no flows")
		}
		rp.rates = append(rp.rates, float64(flows)/wallS)
	}
	return nil
}

func (rp *replayer) report(res *runResult) {
	res.set("replay_flows_per_s", highQuartile(rp.rates), "flows/s")
	res.note("replay_samples", "%.0f flows/s", rp.rates)
}

// checkLedger compares the daemon's final flow count with the ledger's.
func checkLedger(cl *client, held int, res *runResult) {
	h, err := getHealth(cl)
	res.Attempted++
	if err != nil {
		res.fail("final healthz: %v", err)
	} else if h.Flows != held {
		res.fail("final healthz reports %d flows, ledger holds %d", h.Flows, held)
	}
}

// churnTotals gathers what the daemons of one churn run measured.
type churnTotals struct {
	setups, rsss        []float64
	p50s, tails         []float64 // per open-loop latency window
	rates, cpus         []float64 // per closed-loop rate window
	lateMs              []float64
	driverS, wallS      float64
	admitted            int // preload flows admitted; -1 before the first daemon
	primaryOps, slowOps int
	openOps             int
	tailUsed            float64 // lowest tail percentile any window used
	windowMin           int     // samples in the window that used it
}

// churnInstance takes one fresh daemon through set-up → warm-up → open-loop
// stage → closed-loop stage → checks and adds what it measured to t.
func churnInstance(e *env, pop *population, batches []string, openDur, closedDur time.Duration, last bool, res *runResult, t *churnTotals) error {
	w := pop.w
	d, err := e.spawn(pop.platform, w.name)
	if err != nil {
		return err
	}
	defer d.stop()
	pid := d.cmd.Process.Pid
	rr := ramp(d.base, pop, batches, nil)
	t.setups = append(t.setups, d.readyS+rr.wallS)
	res.absorb(rr.fails, len(batches))
	if t.admitted >= 0 && rr.nAdmit != t.admitted {
		res.fail("preload admitted %d flows, the previous identical preload admitted %d", rr.nAdmit, t.admitted)
	}
	t.admitted = rr.nAdmit

	lanes := make([]*lane, e.callers(w))
	for l := range lanes {
		cl := newClient(d.base)
		defer cl.close()
		lanes[l] = newLane(l, httpBackend{cl}, pop, w.mix)
	}
	laneFlows(lanes, rr.admitted)

	runStage(lanes, pid, e.shape.warmup, w.openRate)
	open := runStage(lanes, pid, openDur, w.openRate)
	closed := runStage(lanes, pid, closedDur, 0)

	p, tl, used, perWindow := open.latencyWindows(w)
	if len(p) == 0 {
		return fmt.Errorf("%s: no primary op in the open-loop stage; --seconds is too short", w.name)
	}
	t.p50s, t.tails = append(t.p50s, p...), append(t.tails, tl...)
	if used < t.tailUsed {
		t.tailUsed, t.windowMin = used, perWindow
	}
	primary := open.sample(w.primary, 0, openDur)
	t.primaryOps += len(primary)
	t.slowOps += len(primary) - sort.SearchFloat64s(primary, float64(w.limit)/1e6+1e-9)
	r, c := closed.windowRates()
	t.rates, t.cpus = append(t.rates, r...), append(t.cpus, c...)
	t.lateMs = append(t.lateMs, open.lateMs...)
	t.openOps += open.ops()
	t.driverS += open.driverS + closed.driverS
	t.wallS += open.wallS + closed.wallS
	if last {
		for k := opKind(0); k < numKinds; k++ {
			if xs := open.sample(k, 0, openDur); len(xs) > 0 {
				res.note("open."+k.String(), "last daemon: n=%d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms", len(xs),
					percentile(xs, 0.5), percentile(xs, 0.9), percentile(xs, 0.99), xs[len(xs)-1])
			}
		}
	}

	cl := newClient(d.base)
	defer cl.close()
	held := 0
	for _, l := range lanes {
		held += len(l.live)
		res.absorb(l.fails, l.attempted)
	}
	checkLedger(cl, held, res)
	if last && w.rung == "tight" {
		// Capacity binds here, so this is where a bound bought with a
		// looser analysis would break a promise under replay.
		flows, violations, _, err := revalidate(cl, e.p)
		res.Attempted++
		if err != nil {
			res.fail("revalidate: %v", err)
		} else if violations > 0 || flows != held {
			res.fail("revalidate: %d violations, %d flows replayed, ledger holds %d", violations, flows, held)
		}
	}
	rss, err := peakRSSMiB(pid)
	t.rsss = append(t.rsss, rss)
	return err
}

// runChurn is the untraced run of a churn workload. The measured seconds are
// split evenly over shape.instances fresh daemons, each driven with the same
// op streams, and every timing is the better quartile (see lowQuartile) over
// the windows (or daemons) of all of them: two daemons of one build differ by
// several percent on this host, whatever the cause, and one daemon per run
// would carry that into every figure.
func runChurn(e *env, w *workload, seed uint64, seconds float64) (*runResult, error) {
	res := newRunResult(w, seed, false)
	pop := newPopulation(w, seed)
	batches := pop.preloadBatches()

	n := e.shape.instances
	per := time.Duration(seconds / float64(n) * float64(time.Second))
	// The open loop takes whole latency windows, about openShare of the
	// time; the closed loop takes the rest.
	openDur := max(time.Duration(math.Round(openShare*float64(per)/float64(w.latWindow))), 1) * w.latWindow
	closedDur := max(per-openDur, 2*rateWindow)

	t := churnTotals{admitted: -1, tailUsed: 1}
	rp := newReplayer(e, pop)
	for i := 0; i < n; i++ {
		if err := churnInstance(e, pop, batches, openDur, closedDur, i == n-1, res, &t); err != nil {
			return nil, err
		}
		if err := rp.measure(res); err != nil {
			return nil, err
		}
	}

	res.set("setup_s", lowQuartile(t.setups), "s")
	res.set("admitted_share", float64(t.admitted)/float64(len(pop.preload)), "ratio")
	res.set("lat_p50_ms", lowQuartile(t.p50s), "ms")
	res.set("lat_tail_ms", lowQuartile(t.tails), "ms")
	res.note("lat_samples", "%d windows of %v over %d daemons, %d samples in the smallest; tail is p%.4g", len(t.p50s), w.latWindow, n, t.windowMin, t.tailUsed*100)
	// A failed op misses the limit whatever its latency was.
	res.set("slo_ok_share", 1-float64(min(t.slowOps+res.Failed, t.primaryOps))/float64(t.primaryOps), "ratio")
	res.set("sat_ops_per_s", highQuartile(t.rates), "ops/s")
	res.set("cpu_ms_per_op", lowQuartile(t.cpus), "ms")
	res.note("sat_samples", "%d windows of %v over %d daemons: %.0f ops/s", len(t.rates), rateWindow, n, t.rates)
	res.note("cpu_samples", "%.4g ms/op", t.cpus)
	res.note("lat_p50_samples", "%.4g ms", t.p50s)
	res.note("lat_tail_samples", "%.4g ms", t.tails)
	res.set("rss_mb", median(t.rsss), "MiB")
	rp.report(res)

	// Driver validity: a generator that woke later than the latency limit,
	// or a driver that used most of its core, measured itself.
	sort.Float64s(t.lateMs)
	lateP99 := percentile(t.lateMs, 0.99)
	cpuShare := t.driverS / t.wallS
	res.set("driver.late_p99_ms", lateP99, "ms")
	res.set("driver.offered_ops_per_s", w.openRate, "ops/s")
	res.set("driver.achieved_ops_per_s", float64(t.openOps)/(openDur.Seconds()*float64(n)), "ops/s")
	res.set("driver.cpu_share", cpuShare, "ratio")
	if !e.shape.judged {
		// A smoke run is too short for its own p99 to mean anything.
	} else if lateP99 > float64(w.limit)/1e6 {
		res.Invalid = fmt.Sprintf("open-loop generator woke %.1f ms late at p99, beyond the %v limit", lateP99, w.limit)
	} else if cpuShare > 0.8 {
		res.Invalid = fmt.Sprintf("driver used %.0f %% of its core", cpuShare*100)
	}
	return res, nil
}

// runBulk is the untraced run of the ramp workload: fresh daemons filled
// through /admit/batch until the measured seconds are spent. There is no
// open loop (a loader waits for each reply), so latency is the batch round
// trip, capacity is flows committed per second and set-up is spawn → ready.
func runBulk(e *env, w *workload, seed uint64, seconds float64) (*runResult, error) {
	res := newRunResult(w, seed, false)
	pop := newPopulation(w, seed)
	batches := pop.preloadBatches()
	var setups, rates, cpus, rsss, batchMs []float64
	admitted, offered, slow := 0, 0, 0
	var driverS, wallS float64
	rp := newReplayer(e, pop)
	// Another ramp starts while one of average length still fits.
	for spent := 0.0; len(rates) < e.shape.instances || spent+spent/float64(len(rates)) <= seconds; {
		d, err := e.spawn(pop.platform, w.name)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.readyS)
		pid := d.cmd.Process.Pid
		cpu0, _ := cpuSeconds(pid)
		drv0 := selfCPUSeconds()
		rr := ramp(d.base, pop, batches, nil)
		driverS += selfCPUSeconds() - drv0
		cpu1, _ := cpuSeconds(pid)
		res.absorb(rr.fails, len(batches))
		if len(rates) > 0 && rr.nAdmit*offered != admitted*rr.offered {
			res.fail("ramp admitted %d flows, previous identical ramp admitted a different share", rr.nAdmit)
		}
		admitted += rr.nAdmit
		offered += rr.offered
		spent += rr.wallS
		wallS += rr.wallS
		rates = append(rates, float64(rr.nAdmit)/rr.wallS)
		cpus = append(cpus, (cpu1-cpu0)*1e3/float64(max(rr.nAdmit, 1)))
		batchMs = append(batchMs, rr.batchMs...)

		cl := newClient(d.base)
		checkLedger(cl, rr.nAdmit, res)
		cl.close()
		rss, err := peakRSSMiB(pid)
		d.stop()
		if err != nil {
			return nil, err
		}
		rsss = append(rsss, rss)
		if err := rp.measure(res); err != nil {
			return nil, err
		}
	}
	sort.Float64s(batchMs)
	for _, ms := range batchMs {
		if ms > float64(w.limit)/1e6 {
			slow++
		}
	}
	used, tail := tailOrMax(batchMs, w.tailPct)
	res.set("setup_s", lowQuartile(setups), "s")
	res.set("admitted_share", float64(admitted)/float64(offered), "ratio")
	res.set("lat_p50_ms", percentile(batchMs, 0.5), "ms")
	res.set("lat_tail_ms", tail, "ms")
	res.note("lat_samples", "%d", len(batchMs))
	res.note("lat_tail_percentile", "p%.4g", used*100)
	res.set("slo_ok_share", 1-float64(min(slow+res.Failed, len(batchMs)))/float64(len(batchMs)), "ratio")
	res.set("sat_ops_per_s", highQuartile(rates), "ops/s")
	res.set("cpu_ms_per_op", lowQuartile(cpus), "ms")
	res.set("rss_mb", median(rsss), "MiB")
	res.note("sat_ops", "%d flows in %d ramps", admitted, len(rates))
	rp.report(res)
	res.set("driver.cpu_share", driverS/wallS, "ratio")
	if e.shape.judged && driverS/wallS > 0.8 {
		res.Invalid = fmt.Sprintf("driver used %.0f %% of its core", driverS/wallS*100)
	}
	return res, nil
}

func runUntraced(e *env, w *workload, seed uint64, seconds float64) (*runResult, error) {
	if w.bulk {
		return runBulk(e, w, seed, seconds)
	}
	return runChurn(e, w, seed, seconds)
}
