// Package sim simulates streaming data pipelines with a discrete-event
// model that mirrors the paper's SimPy validation tool: each stage has
// minimum and maximum execution times, a data block size to consume and one
// to emit; events are packet arrival at a node, initiation of execution when
// the node becomes free, and departure on completion. Execution times are
// drawn from a uniform distribution between the configured bounds.
//
// All volumes are tracked twice: in local bytes (what the stage actually
// sees, after compression/filtering upstream) and in input-referred bytes
// (the pipeline-input data the bytes correspond to), so measured throughput,
// delay, and backlog are directly comparable with the network-calculus
// model's normalized curves.
package sim

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"time"

	"streamcalc/internal/des"
	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// SourceConfig describes the flow offered to the pipeline.
type SourceConfig struct {
	// Rate is the long-run emission rate in bytes/s.
	Rate units.Rate
	// PacketSize is the size of each emitted packet; the final packet may be
	// smaller. Required > 0.
	PacketSize units.Bytes
	// Burst is released instantly at time 0 (in addition to the regular
	// packet schedule). Ignored when Envelope is set.
	Burst units.Bytes
	// Poisson draws exponential interarrival times instead of the default
	// deterministic schedule (useful for validating the M/M/1 queueing
	// model).
	Poisson bool
	// Envelope, when non-empty, makes the source a greedy multi-bucket
	// emitter: packets are released at the earliest instants allowed by
	// the envelope min_i(Burst_i + Rate_i * t) — the worst-case arrival
	// process of a variable-rate (concave) arrival curve. Rate/Burst/
	// Poisson are ignored in this mode (Rate may still be set for
	// reporting).
	Envelope []EnvelopeBucket
	// TotalInput ends the run after this much data has been offered.
	// Required > 0.
	TotalInput units.Bytes
}

// EnvelopeBucket is one leaky-bucket constraint of a greedy source
// envelope.
type EnvelopeBucket struct {
	Rate  units.Rate
	Burst units.Bytes
}

// StageConfig describes one pipeline stage.
type StageConfig struct {
	Name string
	// MinExec and MaxExec bound the uniform per-job execution time for a
	// full job of JobIn bytes. Partial (flush) jobs scale proportionally.
	MinExec, MaxExec time.Duration
	// JobIn is consumed per activation; JobOut is emitted. Local bytes.
	JobIn, JobOut units.Bytes
	// QueueCap bounds the input queue in local bytes; 0 means unbounded.
	// A full queue exerts backpressure: the upstream element blocks.
	QueueCap units.Bytes
	// GainFn, when non-nil, scales JobOut per job (e.g. a random
	// compression ratio). It receives the stage's private RNG stream.
	GainFn func(rng *des.RNG) float64
	// ExpExec draws execution times from an exponential distribution with
	// mean (MinExec+MaxExec)/2 instead of uniform (for queueing-theory
	// validation).
	ExpExec bool
	// Startup is a one-time initial delay added to the stage's first job —
	// the T of a rate-latency service curve (pipeline fill, kernel launch).
	Startup time.Duration
	// StallEvery/StallFor inject periodic service interruptions (GC
	// pauses, contention, DVFS dips): after every StallEvery of
	// accumulated busy time the stage pauses for StallFor. The effective
	// sustained rate drops by the factor StallEvery/(StallEvery+StallFor),
	// which a rate-latency service curve with that reduced rate and an
	// extra StallFor of latency still bounds.
	StallEvery, StallFor time.Duration
}

// StageFromRate builds a StageConfig for a stage measured in isolation at
// the given min and max throughput (local bytes/s) processing jobIn-byte
// jobs into jobOut-byte outputs. The execution-time bounds are
// jobIn/maxRate and jobIn/minRate.
func StageFromRate(name string, minRate, maxRate units.Rate, jobIn, jobOut units.Bytes) StageConfig {
	return StageConfig{
		Name:    name,
		MinExec: jobIn.Time(maxRate),
		MaxExec: jobIn.Time(minRate),
		JobIn:   jobIn,
		JobOut:  jobOut,
	}
}

// TracePoint is one step of a cumulative-data trajectory.
type TracePoint struct {
	T   time.Duration
	Cum units.Bytes
}

// StageResult summarizes one stage after a run.
type StageResult struct {
	Name string
	// Jobs is the number of activations (including a final partial flush).
	Jobs int64
	// Utilization is busy time over the span from first input to last
	// output.
	Utilization float64
	// MaxQueueLocal and MaxQueueInput are input-queue high-water marks.
	MaxQueueLocal units.Bytes
	MaxQueueInput units.Bytes
	// BlockedTime is how long the stage was blocked on downstream
	// backpressure.
	BlockedTime time.Duration
	// Stalls counts injected service interruptions (see
	// StageConfig.StallEvery).
	Stalls int64
	// SojournMean/SojournMax summarize per-job stage residence times: the
	// span from a job's oldest byte arriving at the stage's queue to the
	// job's completion. Comparable with the per-node network-calculus
	// delay bound.
	SojournMean, SojournMax time.Duration
}

// Result summarizes a pipeline run.
type Result struct {
	// Elapsed is the simulated time from start to the last departure.
	Elapsed time.Duration
	// InputBytes is the data offered; OutputInput is the input-referred
	// data delivered (equal for lossless pipelines).
	InputBytes  units.Bytes
	OutputInput units.Bytes
	// Throughput is input-referred delivered data over elapsed time.
	Throughput units.Rate
	// DelayMin/Mean/Max summarize per-departure virtual delay: the age of
	// the newest input byte covered by the cumulative output.
	DelayMin, DelayMean, DelayMax time.Duration
	// DelayP50 and DelayP99 are per-departure virtual-delay quantiles, for
	// bound-tightness comparison against the analytic worst case.
	DelayP50, DelayP99 time.Duration
	// MaxBacklog is the system-wide high-water mark of input-referred data
	// in flight (all queues and in-service data).
	MaxBacklog units.Bytes
	// Events is the number of discrete events the kernel executed; Capped
	// reports that the run was truncated by the event-count safety cap
	// (see Pipeline.WithMaxEvents) and the measurements are partial.
	Events uint64
	Capped bool
	// Stages holds per-stage summaries in pipeline order.
	Stages []StageResult
	// Input and Output are (decimated) cumulative trajectories in
	// input-referred bytes — the stairstep curves of the paper's Figures 4
	// and 10.
	Input, Output []TracePoint
}

// Pipeline is a configured simulation. Build with New, add stages in order,
// then Run.
type Pipeline struct {
	src    SourceConfig
	stages []StageConfig
	seed   uint64

	reg       *obs.Registry
	tw        *obs.Trace
	maxEvents uint64
}

// New creates a pipeline simulation fed by src, reproducible for a given
// seed.
func New(src SourceConfig, seed uint64) *Pipeline {
	return &Pipeline{src: src, seed: seed}
}

// Add appends a stage and returns the pipeline for chaining.
func (p *Pipeline) Add(cfg StageConfig) *Pipeline {
	p.stages = append(p.stages, cfg)
	return p
}

// WithMetrics streams run telemetry onto reg: kernel event counters, queue
// depth gauges, per-stage sojourn histograms, stall and backpressure
// accounting. Detached (the default) the run pays only nil checks.
func (p *Pipeline) WithMetrics(reg *obs.Registry) *Pipeline {
	p.reg = reg
	return p
}

// WithTrace records a Chrome trace_event timeline of the run onto tw: one
// span per stage activation, instants for stalls, spans for backpressure
// blocking, and counter tracks for queue levels and cumulative input/output.
// Load the exported file in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (p *Pipeline) WithTrace(tw *obs.Trace) *Pipeline {
	p.tw = tw
	return p
}

// WithMaxEvents caps the number of kernel events (0 restores the default,
// effectively unlimited). A capped run returns partial measurements with
// Result.Capped set, increments nc_sim_event_cap_total when metrics are
// attached, and logs a warning.
func (p *Pipeline) WithMaxEvents(n uint64) *Pipeline {
	p.maxEvents = n
	return p
}

func (p *Pipeline) validate() error {
	if p.src.Rate <= 0 && len(p.src.Envelope) == 0 {
		return errors.New("sim: source Rate must be positive")
	}
	for i, b := range p.src.Envelope {
		if b.Rate <= 0 || b.Burst < 0 {
			return fmt.Errorf("sim: source Envelope[%d]: Rate must be positive, Burst non-negative", i)
		}
	}
	if p.src.PacketSize <= 0 {
		return errors.New("sim: source PacketSize must be positive")
	}
	if p.src.TotalInput <= 0 {
		return errors.New("sim: source TotalInput must be positive")
	}
	if len(p.stages) == 0 {
		return errors.New("sim: pipeline has no stages")
	}
	for i, s := range p.stages {
		if s.JobIn <= 0 || s.JobOut <= 0 {
			return fmt.Errorf("sim: stage %d (%s): JobIn and JobOut must be positive", i, s.Name)
		}
		if s.MinExec < 0 || s.MaxExec < s.MinExec {
			return fmt.Errorf("sim: stage %d (%s): need 0 <= MinExec <= MaxExec", i, s.Name)
		}
		if s.QueueCap < 0 {
			return fmt.Errorf("sim: stage %d (%s): negative QueueCap", i, s.Name)
		}
		if s.QueueCap > 0 && s.QueueCap < s.JobIn {
			return fmt.Errorf("sim: stage %d (%s): QueueCap below JobIn deadlocks", i, s.Name)
		}
		if s.Startup < 0 {
			return fmt.Errorf("sim: stage %d (%s): negative Startup", i, s.Name)
		}
	}
	return nil
}

// Run executes the simulation to completion and returns the measurements.
// A run truncated by the event cap (WithMaxEvents) is not an error: it
// returns the partial measurements with Result.Capped set, alongside a
// logged warning and an nc_sim_event_cap_total increment when metrics are
// attached — silent truncation would read as a finished run.
func (p *Pipeline) Run() (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	r := newRun(p)
	r.start()
	max := p.maxEvents
	if max == 0 {
		max = math.MaxUint64 - 1
	}
	executed, capped := r.sim.RunAll(max)
	if capped {
		if r.pr != nil {
			r.pr.capHits.Inc()
		}
		slog.Warn("sim: event cap hit, returning partial measurements",
			"max_events", max, "sim_time_s", r.sim.Now(), "pending", r.sim.Pending())
	}
	res, err := r.result()
	if err != nil {
		return nil, err
	}
	res.Events = executed
	res.Capped = capped
	return res, nil
}
