// Package load is the scale check of the admission controller: it ramps a
// generated tenant population (internal/gen) into an in-process
// admit.Controller in transactional batches and reports the ramp rate and
// the registry and heap it leaves behind. It also holds the rung sweep
// (rungsweep.go), the acceptance artifact of the FIFO tightness ladder.
//
// Request-level load against a running ncadmitd — latency, saturation, CPU
// per operation — is measured by the repository's benchmark (bench/), not
// here.
package load

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/gen"
	"streamcalc/internal/pool"
)

// Config tunes one ramp.
type Config struct {
	Controller *admit.Controller
	Pop        *gen.Population

	// Flows is the registered-flow target: batches are offered until the
	// registry holds at least this many flows (or 4× Flows have been
	// offered — the scenario is then undersized).
	Flows int
	// BatchSize is the transaction size (default 16384).
	BatchSize int
	// Workers bounds concurrent batches (< 1 means GOMAXPROCS).
	Workers int

	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Snapshot is the registry and heap state after the ramp.
type Snapshot struct {
	Flows     int    `json:"flows"`
	Classes   int    `json:"classes"`
	Epoch     uint64 `json:"epoch"`
	HeapAlloc uint64 `json:"heap_alloc_bytes"`
	HeapSys   uint64 `json:"heap_sys_bytes"`
}

func snapshot(c *admit.Controller) Snapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return Snapshot{
		Flows:     c.FlowCount(),
		Classes:   c.ClassCount(),
		Epoch:     c.Epoch(),
		HeapAlloc: m.HeapAlloc,
		HeapSys:   m.HeapSys,
	}
}

// RampReport covers the bulk registration.
type RampReport struct {
	TargetFlows int           `json:"target_flows"`
	Offered     int           `json:"offered"`
	Admitted    int           `json:"admitted"`
	Rejected    int           `json:"rejected"`
	Batches     int           `json:"batches"`
	BatchSize   int           `json:"batch_size"`
	Duration    time.Duration `json:"duration_ns"`
	FlowsPerSec float64       `json:"flows_per_second"`
}

// Report is the run artifact (results/loadtest_1m.json).
type Report struct {
	Scenario   string    `json:"scenario"`
	Seed       uint64    `json:"seed"`
	Workers    int       `json:"workers"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	StartedAt  time.Time `json:"started_at"`

	Ramp   RampReport `json:"ramp"`
	Steady Snapshot   `json:"steady"` // after the ramp
}

// Run ramps cfg.Pop into cfg.Controller and returns the report.
//
// The ramp is deterministic at the request level: the flows of every batch
// are pure functions of (population spec, seed, flow target). Verdicts and
// timings are what the report measures.
func Run(cfg Config) (*Report, error) {
	if cfg.Controller == nil || cfg.Pop == nil {
		return nil, fmt.Errorf("load: config needs Controller and Pop")
	}
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("load: config needs Flows > 0")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16384
	}
	rep := &Report{
		Workers:    pool.Workers(cfg.Workers, 1<<30),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		StartedAt:  time.Now(),
		Ramp:       ramp(&cfg),
	}
	rep.Steady = snapshot(cfg.Controller)
	if rep.Steady.Flows == 0 {
		return nil, fmt.Errorf("load: registry is empty after the ramp")
	}
	cfg.logf("steady state: %d flows, %d classes, epoch %d, heap %.1f MiB",
		rep.Steady.Flows, rep.Steady.Classes, rep.Steady.Epoch, float64(rep.Steady.HeapAlloc)/(1<<20))
	return rep, nil
}

// ramp registers flows in transactional batches until the registry holds at
// least cfg.Flows. The first wave (exactly enough batches for the target if
// nothing rejects) fans out over the worker pool; if SLO rejections leave
// the registry short, sequential top-up batches follow until the target or
// the 4× overcommit cap is reached.
func ramp(cfg *Config) RampReport {
	t0 := time.Now()
	nBatches := (cfg.Flows + cfg.BatchSize - 1) / cfg.BatchSize
	var admitted, offered, batches atomic.Int64

	runBatch := func(lo, hi int) {
		n := 0
		for _, v := range cfg.Controller.AdmitBatch(cfg.Pop.Flows(lo, hi)) {
			if v.Admitted {
				n++
			}
		}
		admitted.Add(int64(n))
		offered.Add(int64(hi - lo))
		if b := batches.Add(1); b%16 == 0 {
			cfg.logf("ramp: %d batches, %d/%d admitted", b, admitted.Load(), cfg.Flows)
		}
	}

	// No batch returns an error and the context is never canceled, so
	// ForEach cannot fail.
	_ = pool.ForEach(context.Background(), cfg.Workers, nBatches, nil, func(i int) error {
		lo := i * cfg.BatchSize
		runBatch(lo, min(lo+cfg.BatchSize, cfg.Flows))
		return nil
	})

	// Top up past rejections: later indexes draw fresh template assignments,
	// so loose-tier flows keep landing until the target count registers.
	for next := cfg.Flows; int(admitted.Load()) < cfg.Flows && next < 4*cfg.Flows; next += cfg.BatchSize {
		runBatch(next, next+cfg.BatchSize)
	}

	d := time.Since(t0)
	r := RampReport{
		TargetFlows: cfg.Flows,
		Offered:     int(offered.Load()),
		Admitted:    int(admitted.Load()),
		Rejected:    int(offered.Load() - admitted.Load()),
		Batches:     int(batches.Load()),
		BatchSize:   cfg.BatchSize,
		Duration:    d,
		FlowsPerSec: float64(admitted.Load()) / d.Seconds(),
	}
	cfg.logf("ramp done: %d admitted / %d offered in %v (%.0f flows/s)",
		r.Admitted, r.Offered, d.Round(time.Millisecond), r.FlowsPerSec)
	if r.Admitted < cfg.Flows {
		cfg.logf("ramp fell short of %d flows: scenario platform is undersized", cfg.Flows)
	}
	return r
}
