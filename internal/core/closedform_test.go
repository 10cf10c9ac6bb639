package core

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"streamcalc/internal/units"
)

// closedFormSeed seeds TestClosedFormDominatesBound; ROADMAP's magnitude-fuzz
// item quotes the panic census this seed produces.
const closedFormSeed = 25

// logUniform draws from [lo, hi] uniformly in the exponent.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

// randomScreenPipeline draws a pipeline across the magnitudes admission
// meets: 1-4 nodes at 1 kB/s-100 GB/s with 2 ns-10 ms of latency, gains other
// than 1, aggregating jobs, fluid and packetised hops, cross traffic up to
// 97 % of a node's rate, and 1-3 arrival buckets offering between 1 % and
// 120 % of what the chain can carry (so some draws are overloaded).
func randomScreenPipeline(rng *rand.Rand) Pipeline {
	nodes := make([]Node, 1+rng.Intn(4))
	gain, carry := 1.0, math.Inf(1) // carry: least input-referred residual rate
	for i := range nodes {
		rate := logUniform(rng, 1e3, 1e11)
		n := Node{
			Name: string(rune('a' + i)), Rate: units.Rate(rate),
			Latency: time.Duration(logUniform(rng, 2, 1e7)),
			JobIn:   1, JobOut: 1,
		}
		switch rng.Intn(3) {
		case 0: // aggregates: a job larger than any grain upstream
			n.JobIn = units.Bytes(logUniform(rng, 1e4, 1e6))
			n.JobOut = n.JobIn
		case 1: // gain != 1
			n.JobIn = units.Bytes(logUniform(rng, 1, 1e4))
			n.JobOut = n.JobIn.Mul(logUniform(rng, 0.1, 10))
		}
		if rng.Intn(2) == 0 {
			n.MaxPacket = units.Bytes(logUniform(rng, 64, 9000))
		}
		if rng.Intn(3) > 0 {
			n.CrossRate = units.Rate(rate * 0.97 * rng.Float64())
			n.CrossBurst = units.Bytes(logUniform(rng, 1, 1e7))
		}
		carry = math.Min(carry, float64(n.Rate-n.CrossRate)/gain)
		gain *= n.Gain()
		nodes[i] = n
	}
	arr := Arrival{
		Rate:  units.Rate(carry * logUniform(rng, 0.01, 1.2)),
		Burst: units.Bytes(logUniform(rng, 1, 1e7)),
	}
	if rng.Intn(3) > 0 {
		arr.MaxPacket = units.Bytes(logUniform(rng, 64, 9000))
	}
	for k := rng.Intn(3); k > 0; k-- { // faster, shallower buckets: a concave envelope
		last := Bucket{arr.Rate, arr.Burst}
		if len(arr.Extra) > 0 {
			last = arr.Extra[len(arr.Extra)-1]
		}
		arr.Extra = append(arr.Extra, Bucket{
			Rate:  last.Rate.Mul(logUniform(rng, 1.5, 10)),
			Burst: last.Burst.Mul(logUniform(rng, 0.05, 0.8)),
		})
	}
	return Pipeline{Name: "screen-fuzz", Arrival: arr, Nodes: nodes}
}

var numberRE = regexp.MustCompile(`[-+]?[0-9][0-9.]*(e[-+]?[0-9]+)?`)

// boundOrPanic is Bound with an engine panic recovered into a census key:
// the rung, whether the envelope has one bucket or several, and the message
// with its numbers blanked so that like panics count together.
func boundOrPanic(p Pipeline) (b *Bounds, err error, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			buckets := "1 bucket"
			if len(p.Arrival.Extra) > 0 {
				buckets = "2-3 buckets"
			}
			panicked = fmt.Sprintf("%-5v %-11s %s", p.Rung, buckets, numberRE.ReplaceAllString(fmt.Sprint(r), "#"))
		}
	}()
	b, err = Bound(p, nil)
	return b, err, ""
}

// closedFormViolations holds one pipeline's ClosedForm against Bound at every
// rung, and the blind rung's bounds against those of the same pipeline under
// more cross traffic. Engine panics go to census (message -> count); the
// returned strings are violations.
func closedFormViolations(rng *rand.Rand, p Pipeline, census map[string]int) (bad []string, answered bool) {
	const tol = 1e-9
	delay, backlog, throughput, ok := ClosedForm(p.Arrival, p.Nodes)
	var blind *Bounds
	for _, r := range Rungs() {
		p.Rung = r
		b, err, panicked := boundOrPanic(p)
		if panicked != "" {
			census[panicked]++
			continue
		}
		if r == RungBlind && err == nil {
			blind = b
		}
		if !ok {
			continue
		}
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("%v: the screen answered, Bound failed: %v", r, err))
		case b.Overloaded:
			bad = append(bad, fmt.Sprintf("%v: the screen answered an overloaded pipeline", r))
		case b.Delay.Seconds() > delay*(1+tol):
			bad = append(bad, fmt.Sprintf("%v: delay %v above the closed form's %v", r, b.Delay, dur(delay)))
		case float64(b.Backlog) > float64(backlog)*(1+tol):
			bad = append(bad, fmt.Sprintf("%v: backlog %v above the closed form's %v", r, float64(b.Backlog), float64(backlog)))
		case float64(b.Throughput) < float64(throughput)*(1-tol):
			bad = append(bad, fmt.Sprintf("%v: throughput %v below the closed form's %v", r, float64(b.Throughput), float64(throughput)))
		}
	}

	// Blind-rung isotonicity: more cross traffic at a node never helps.
	if blind == nil || blind.Overloaded {
		return bad, ok
	}
	more := p
	more.Rung = RungBlind
	more.Nodes = append([]Node(nil), p.Nodes...)
	n := &more.Nodes[rng.Intn(len(more.Nodes))]
	n.CrossRate += (n.Rate - n.CrossRate).Mul(0.9 * rng.Float64())
	n.CrossBurst += units.Bytes(logUniform(rng, 1, 1e7))
	b, err, panicked := boundOrPanic(more)
	switch {
	case panicked != "":
		census[panicked+" (isotonicity probe)"]++
	case err != nil:
		bad = append(bad, fmt.Sprintf("more cross traffic below the node's rate: %v", err))
	case float64(b.Delay) < float64(blind.Delay)*(1-tol) || float64(b.Backlog) < float64(blind.Backlog)*(1-tol) ||
		float64(b.Throughput) > float64(blind.Throughput)*(1+tol):
		bad = append(bad, fmt.Sprintf("more cross traffic improved a blind bound: %v/%v/%v -> %v/%v/%v",
			blind.Delay, float64(blind.Backlog), float64(blind.Throughput), b.Delay, float64(b.Backlog), float64(b.Throughput)))
	}
	return bad, ok
}

// censusCeiling is the most engine panics TestClosedFormDominatesBound may
// recover on its seed: the count the engine reaches today, all of them the
// time-axis defect (ROADMAP). A change that heals more of the time axis
// lowers it; none may raise it.
const censusCeiling = 368

// The screen never passes what the analysis would fail: wherever ClosedForm
// answers, Bound at blind, fifo and tight succeeds, is not overloaded, and
// promises no more delay or backlog and no less throughput. Panics inside the
// curve engine are known at these magnitudes (ROADMAP, time-axis item): they
// are counted and logged, and fail the test only past censusCeiling.
func TestClosedFormDominatesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(closedFormSeed))
	census := map[string]int{}
	const trials = 10000
	var answered, failed int
	for trial := 0; trial < trials; trial++ {
		p := randomScreenPipeline(rng)
		bad, ok := closedFormViolations(rng, p, census)
		if ok {
			answered++
		}
		for _, v := range bad {
			t.Errorf("trial %d: %s\npipeline %+v", trial, v, p)
		}
		if len(bad) > 0 {
			if failed++; failed >= 5 {
				t.Fatal("stopping after 5 failing pipelines")
			}
		}
	}
	if answered < trials/2 {
		t.Errorf("the screen answered %d of %d pipelines: the generator is off target", answered, trials)
	}
	kinds := make([]string, 0, len(census))
	panics := 0
	for k, n := range census {
		kinds = append(kinds, fmt.Sprintf("%6d  %s", n, k))
		panics += n
	}
	sort.Strings(kinds)
	t.Logf("seed %d: the screen answered %d of %d pipelines; %d engine panics recovered:\n%s",
		closedFormSeed, answered, trials, panics, strings.Join(kinds, "\n"))
	if panics > censusCeiling {
		t.Errorf("%d engine panics recovered, above the ceiling of %d", panics, censusCeiling)
	}
}

// FuzzClosedFormDominatesBound is the same property with the generator seed
// as the fuzz input.
func FuzzClosedFormDominatesBound(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, closedFormSeed} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomScreenPipeline(rng)
		bad, _ := closedFormViolations(rng, p, map[string]int{})
		for _, v := range bad {
			t.Errorf("%s\npipeline %+v", v, p)
		}
	})
}

// A platform node with a 1 ns latency used to panic every analysis through
// it (curve.RateLatency lost its origin segment); it now analyses at every
// rung, and the screen still dominates.
func TestBoundOneNanosecondLatency(t *testing.T) {
	p := Pipeline{
		Arrival: Arrival{Rate: 10 * units.MiBPerSec, Burst: 64 * units.KiB, MaxPacket: 1500},
		Nodes: []Node{
			{Name: "wire", Rate: units.GiBPerSec, Latency: time.Nanosecond, JobIn: 1, JobOut: 1,
				CrossRate: 100 * units.MiBPerSec, CrossBurst: units.MiB},
			{Name: "core", Rate: 200 * units.MiBPerSec, Latency: time.Nanosecond, JobIn: 1, JobOut: 1},
		},
	}
	delay, backlog, _, ok := ClosedForm(p.Arrival, p.Nodes)
	if !ok {
		t.Fatal("the screen declined a lightly loaded pipeline")
	}
	for _, r := range Rungs() {
		p.Rung = r
		b, err := Bound(p, nil)
		if err != nil || b.Overloaded {
			t.Fatalf("%v: Bound = %+v, %v", r, b, err)
		}
		if b.Delay <= 0 || b.Delay.Seconds() > delay*(1+1e-9) || float64(b.Backlog) > float64(backlog)*(1+1e-9) {
			t.Errorf("%v: delay %v backlog %v, closed form %v / %v", r, b.Delay, float64(b.Backlog), dur(delay), float64(backlog))
		}
	}
}
