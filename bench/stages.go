package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// rampResult is one back-to-back /admit/batch load of a population.
type rampResult struct {
	wallS    float64
	batchMs  []float64 // round trip of each batch
	offered  int
	admitted []bool // per preload flow
	nAdmit   int
	fails    failures
	spans    []int // traced: the http.batch span of each batch
}

// ramp posts the batches back-to-back on one connection. Replies are kept
// and checked after the last one, so the timed region is the daemon's work
// and the loopback transfer, not the driver's decoding. A non-nil tracer
// gets one http.batch span per batch, op ids counting down from -1.
func ramp(base string, pop *population, batches []string, tr *tracer) rampResult {
	cl := newClient(base)
	defer cl.close()
	res := rampResult{offered: len(pop.preload), admitted: make([]bool, len(pop.preload))}
	replies := make([][]byte, len(batches))
	start := time.Now()
	for i, b := range batches {
		t0 := time.Now()
		sp := tr.begin(-1-i, "ncadmitd", "http.batch", -1)
		status, resp, err := cl.do("POST", "/admit/batch", b)
		tr.end(sp)
		res.spans = append(res.spans, sp)
		res.batchMs = append(res.batchMs, float64(time.Since(t0))/1e6)
		if err != nil {
			res.fails.add("batch %d: transport: %v", i, err)
			continue
		}
		if status != 200 {
			res.fails.add("batch %d: status %d: %.200s", i, status, resp)
			continue
		}
		replies[i] = resp
	}
	res.wallS = time.Since(start).Seconds()

	flow := 0
	for i, resp := range replies {
		n := min(pop.w.batchSize, len(pop.preload)-i*pop.w.batchSize)
		if resp == nil {
			flow += n
			continue
		}
		var vs []verdict
		if err := json.Unmarshal(resp, &vs); err != nil || len(vs) != n {
			res.fails.add("batch %d: undecodable reply (%d verdicts for %d flows): %v", i, len(vs), n, err)
			flow += n
			continue
		}
		for j := range vs {
			if vs[j].Admitted {
				if msg := checkPromise(&vs[j], preloadID(flow), &pop.classes[pop.preload[flow]]); msg != "" {
					res.fails.add("batch %d: %s", i, msg)
				}
				res.admitted[flow] = true
				res.nAdmit++
			}
			flow++
		}
	}
	return res
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Flows           int    `json:"flows"`
	Classes         int    `json:"classes"`
	CommitConflicts uint64 `json:"commit_conflicts"`
	Caches          struct {
		Verdict  cacheCount `json:"verdict"`
		Analysis cacheCount `json:"analysis"`
		CurveOps cacheCount `json:"curve_ops"`
	} `json:"caches"`
}

type cacheCount struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

func (c cacheCount) share() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

func getHealth(cl *client) (health, error) {
	var h health
	status, resp, err := cl.do("GET", "/healthz", "")
	if err != nil {
		return h, err
	}
	if status != 200 {
		return h, fmt.Errorf("healthz: status %d", status)
	}
	if err := json.Unmarshal(resp, &h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// opRecord is one op of a stage: what it resolved to, when it was due (open
// loop) or issued (closed loop) and when its reply was in, both since the
// stage began.
type opRecord struct {
	kind     opKind
	status   int
	from, to time.Duration
}

func (r opRecord) ms() float64 { return float64(r.to-r.from) / 1e6 }

// stageResult is what one churn stage measured, lanes merged. Every figure
// derived from it is taken per fixed window of the stage, for a median over
// windows: this host stalls for tens of milliseconds now and then, and a
// statistic over a whole stage inherits every stall, while the median window
// does not.
type stageResult struct {
	dur     time.Duration
	wallS   float64
	records []opRecord
	lateMs  []float64 // open loop: how late an idle lane woke for its op, sorted
	// cpuS and done sample the daemon's CPU seconds and the ops completed at
	// every rateWindow boundary, from 0 to the end of the stage.
	cpuS    []float64
	done    []int
	driverS float64 // driver CPU seconds over the stage
}

func (s *stageResult) ops() int { return len(s.records) }

// sample returns the sorted latencies in ms of the ops of kind (every kind
// for primaryAll) that were due in [lo, hi).
func (s *stageResult) sample(kind opKind, lo, hi time.Duration) []float64 {
	var out []float64
	for _, r := range s.records {
		if (kind == primaryAll || r.kind == kind) && r.from >= lo && r.from < hi {
			out = append(out, r.ms())
		}
	}
	sort.Float64s(out)
	return out
}

// latencyWindows reports the primary op's latency in each whole window of
// width w.latWindow: its p50 and its tail percentile (fixed by the workload,
// lowered by the tail rule when a window holds too few samples), plus the
// lowest percentile used and the samples of the smallest window. When no
// window is large enough (a smoke run) the stage counts as one window.
func (s *stageResult) latencyWindows(w *workload) (p50s, tails []float64, used float64, perWindow int) {
	for lo := time.Duration(0); lo+w.latWindow <= s.dur; lo += w.latWindow {
		xs := s.sample(w.primary, lo, lo+w.latWindow)
		u, t, ok := tailPercentile(xs, w.tailPct)
		if !ok {
			continue
		}
		p50s = append(p50s, percentile(xs, 0.5))
		tails = append(tails, t)
		if used == 0 || u < used {
			used, perWindow = u, len(xs)
		}
	}
	if len(p50s) > 0 {
		return p50s, tails, used, perWindow
	}
	xs := s.sample(w.primary, 0, s.dur)
	if len(xs) == 0 {
		return nil, nil, 0, 0
	}
	used, tail := tailOrMax(xs, w.tailPct)
	return []float64{percentile(xs, 0.5)}, []float64{tail}, used, len(xs)
}

// windowRates returns ops completed per second, and daemon CPU milliseconds
// per op, in each rateWindow of the stage but the first, which holds the
// switch from the open loop's pace to the closed loop's and reads low.
func (s *stageResult) windowRates() (opsPerS, cpuMsPerOp []float64) {
	for i := min(2, len(s.done)-1); i < len(s.done); i++ {
		n := s.done[i] - s.done[i-1]
		opsPerS = append(opsPerS, float64(n)/rateWindow.Seconds())
		if n > 0 {
			cpuMsPerOp = append(cpuMsPerOp, (s.cpuS[i]-s.cpuS[i-1])*1e3/float64(n))
		}
	}
	return opsPerS, cpuMsPerOp
}

const rateWindow = 500 * time.Millisecond

// runStage drives every lane for dur. With rate > 0 it is an open loop: lane
// l's j-th op is due at start + (j·C + l)/rate whatever happened before, and
// latency runs from that due time, so a stall is charged to the ops queued
// behind it. With rate 0 it is a closed loop: each lane issues its next op
// when the previous reply is in.
func runStage(lanes []*lane, pid int, dur time.Duration, rate float64) stageResult {
	type laneOut struct {
		records []opRecord
		late    []float64
	}
	outs := make([]laneOut, len(lanes))
	res := stageResult{dur: dur}
	var completed atomic.Int64
	drv0 := selfCPUSeconds()
	start := time.Now()
	end := start.Add(dur)

	// The sampler reads the daemon's CPU clock at every window boundary.
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 0; ; i++ {
			at := start.Add(time.Duration(i) * rateWindow)
			if at.After(end) {
				return
			}
			time.Sleep(time.Until(at))
			cpu, _ := cpuSeconds(pid) // a vanished daemon fails every op anyway
			res.cpuS = append(res.cpuS, cpu)
			res.done = append(res.done, int(completed.Load()))
		}
	}()

	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			out := &outs[i]
			interval := time.Duration(0)
			if rate > 0 {
				interval = time.Duration(float64(len(lanes)) / rate * float64(time.Second))
			}
			due := start.Add(time.Duration(float64(i) / float64(len(lanes)) * float64(interval)))
			for {
				var from time.Time
				if rate > 0 {
					if !due.Before(end) {
						return
					}
					// Only an idle lane tells how late the generator runs; a
					// lane still busy past the due time is the daemon's doing
					// and is charged to latency.
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
						out.late = append(out.late, float64(time.Since(due))/1e6)
					}
					from = due
					due = due.Add(interval)
				} else {
					from = time.Now()
					if !from.Before(end) {
						return
					}
				}
				kind, status := l.issue(l.pl.next())
				out.records = append(out.records, opRecord{kind: kind, status: status, from: from.Sub(start), to: time.Since(start)})
				completed.Add(1)
			}
		}(i, l)
	}
	wg.Wait()
	<-sampled
	res.wallS = time.Since(start).Seconds()
	res.driverS = selfCPUSeconds() - drv0
	for _, o := range outs {
		res.records = append(res.records, o.records...)
		res.lateMs = append(res.lateMs, o.late...)
	}
	sort.Float64s(res.lateMs)
	return res
}

// revalidation is the part of POST /revalidate the benchmark reads.
type revalidation struct {
	Violations int               `json:"violations"`
	Flows      []json.RawMessage `json:"flows"`
}

// revalidate runs one DES replay of every registered flow on the daemon and
// returns flows replayed, violations found and the wall time.
func revalidate(cl *client, workers int) (flows, violations int, wallS float64, err error) {
	t0 := time.Now()
	status, resp, err := cl.do("POST", fmt.Sprintf("/revalidate?workers=%d", workers), "")
	wallS = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, wallS, err
	}
	if status != 200 && status != 409 {
		return 0, 0, wallS, fmt.Errorf("revalidate: status %d: %.200s", status, bytes.TrimSpace(resp))
	}
	var rv revalidation
	if err := json.Unmarshal(resp, &rv); err != nil {
		return 0, 0, wallS, fmt.Errorf("revalidate: %w", err)
	}
	return len(rv.Flows), rv.Violations, wallS, nil
}
