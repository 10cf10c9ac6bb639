package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark owns its workload generator: the daemon only ever sees the
// request bodies produced here, and everything below is a pure function of
// (workload, seed).

// rng is splitmix64: tiny, seedable, and independent of the product's own
// generators so a product change cannot perturb the workload.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
}

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 is uniform in [0, 1).
func (r *rng) f64() float64 { return float64(r.u64()>>11) / (1 << 53) }

func (r *rng) norm() float64 {
	u := 1 - r.f64() // (0, 1]
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.f64())
}

// RNG stream ids: one per generator so adding a stream never shifts another.
const (
	streamClasses = iota
	streamPreload
	streamLaneBase // lane l draws from streamLaneBase+l
)

type opKind uint8

const (
	opAdmit   opKind = iota
	opRelease        // DELETE of a flow the ledger holds
	opRecheck        // GET recheck of a flow the ledger holds
	opReject         // re-offer of an over-SLO spec under a fresh id; expects 409
	opNoop           // DELETE of an id the daemon does not hold; expects 404
	numKinds
)

var kindNames = [numKinds]string{"admit", "release", "recheck", "reject", "noop"}

func (k opKind) String() string { return kindNames[k] }

// primaryAll marks a workload whose latency sample is every op, not one kind.
const primaryAll = numKinds

type nodeSpec struct {
	name    string
	latency string
}

type sloTier struct {
	share             float64
	maxDelay          string
	minThroughputFrac float64
}

// workload is one traffic mix with the platform it runs against. Rates are
// about 40 % of the capacity the seed commit reached on a 2-core host.
type workload struct {
	name string
	why  string

	nodes     []nodeSpec
	paths     [][]string
	pathShare []float64 // share of classes on each path
	rung      string
	classes   int
	// threeBucket gives every class a three-bucket (3-segment concave)
	// arrival envelope instead of a single leaky bucket.
	threeBucket bool
	tiers       []sloTier
	// burstSeconds, when set, sizes each class's burst as that many seconds
	// of its own rate (±2 %) instead of the lognormal draw, so every class
	// has the same delay slack and contention binds them together.
	burstSeconds float64
	// popSkew is the Zipf exponent of class popularity (0 = uniform).
	popSkew float64
	preload int
	// headroom sizes each node at headroom × the demand the preload offers
	// it, so the admission profile holds across seeds.
	headroom float64

	mix      [numKinds]float64
	primary  opKind
	openRate float64 // ops/s offered in the open-loop stage
	limit    time.Duration
	tailPct  float64
	// latWindow is the width of the open-loop windows latency is reported
	// over: wide enough that a window leaves ten samples beyond tailPct.
	latWindow time.Duration

	// callers, when set, replaces the driver's C lanes. tight_replay has one:
	// a single caller makes the daemon's state a function of the seed alone,
	// so a seed either always trips the product's tight-rung panic (see
	// CHANGES.md) or never does, where eight racing callers made every run a
	// fresh draw at about 2 % a run. An admit there costs 4 ms of daemon CPU
	// against 0.2 ms of driver, so one caller still saturates it.
	callers int

	// bulk marks the closed-loop-only ramp workload: fresh daemons filled
	// through /admit/batch, no churn stages.
	bulk      bool
	batchSize int
}

var streamingNodes = []nodeSpec{
	{"ingest", "200us"}, {"transcode", "500us"}, {"egress", "300us"},
}

var streamingPaths = [][]string{
	{"ingest", "transcode", "egress"},
	{"ingest", "egress"},
}

var streamingTiers = []sloTier{
	{0.7, "500ms", 0},
	{0.2, "250ms", 0},
	{0.1, "120ms", 0.9},
}

var workloads = []workload{
	{
		name:  "churn_wide",
		why:   "64 classes share ingest/egress, so each admit re-analyses them all: admit sweep + core + curve dominate, transport is small",
		nodes: streamingNodes, paths: streamingPaths, pathShare: []float64{0.64, 0.36},
		rung: "blind", classes: 64, tiers: streamingTiers, popSkew: 1,
		preload: 50000, headroom: 3, batchSize: 4096,
		mix:     [numKinds]float64{opAdmit: 40, opRelease: 40, opRecheck: 20},
		primary: opAdmit, openRate: 150, limit: 50 * time.Millisecond, tailPct: 0.90, latWindow: 2 * time.Second,
	},
	{
		name:  "read_mostly",
		why:   "8 classes and mostly rechecks, cached rejects and 404s, so per-request cost in ncadmitd + spec + admit precheck/caches dominates",
		nodes: streamingNodes, paths: streamingPaths, pathShare: []float64{0.64, 0.36},
		rung: "blind", classes: 8, tiers: streamingTiers, popSkew: 1,
		preload: 20000, headroom: 4, batchSize: 4096,
		mix:     [numKinds]float64{opRecheck: 50, opReject: 25, opAdmit: 10, opRelease: 10, opNoop: 5},
		primary: primaryAll, openRate: 1000, limit: 10 * time.Millisecond, tailPct: 0.95, latWindow: time.Second,
	},
	{
		name:  "bulk_ramp",
		why:   "fresh daemons filled by back-to-back 4096-flow /admit/batch bodies: body read + spec.ParseFlows + verdict encoding + AdmitBatch, and bytes per flow",
		nodes: streamingNodes, paths: streamingPaths, pathShare: []float64{0.64, 0.36},
		rung: "blind", classes: 64, tiers: streamingTiers, popSkew: 1,
		preload: 200000, headroom: 3, batchSize: 4096,
		primary: primaryAll, limit: 500 * time.Millisecond, tailPct: 0.90,
		bulk: true,
	},
	{
		name:      "tight_replay",
		why:       "4-node chain at the tight rung with 3-segment envelopes and binding capacity: theta-lattice search in core, FIFO residual/convolution/HDev in curve, DES replay",
		nodes:     []nodeSpec{{"n1", "200us"}, {"n2", "400us"}, {"n3", "300us"}, {"n4", "250us"}},
		paths:     [][]string{{"n1", "n2", "n3", "n4"}, {"n1", "n3", "n4"}},
		pathShare: []float64{0.67, 0.33},
		rung:      "tight", classes: 12, threeBucket: true, burstSeconds: 0.02,
		// Delay, not saturation, is what binds: every class carries 20 ms of
		// its own rate as burst, so bounds grow together as the nodes fill
		// and the tightest tier stops admissions near 65 % utilisation.
		tiers:   []sloTier{{0.7, "200ms", 0}, {0.2, "120ms", 0}, {0.1, "80ms", 0.9}},
		preload: 2000, headroom: 1.1, batchSize: 500,
		mix:     [numKinds]float64{opAdmit: 50, opRelease: 50},
		primary: opAdmit, openRate: 30, limit: 250 * time.Millisecond, tailPct: 0.90, latWindow: 4 * time.Second,
		callers: 1,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// class is one flow template; every flow of the class shares the JSON tail
// that follows its id.
type class struct {
	rate, burst float64 // B/s, B
	path        int
	tier        int
	tail        string // `,"arrival":{...},"path":[...],"slo":{...}}`
	maxDelay    time.Duration
	minTput     float64
}

// population is the seed-determined part of a workload: classes, their
// popularity, the platform sized for the preload, and the over-SLO specs.
type population struct {
	w        *workload
	seed     uint64
	classes  []class
	cumPop   []float64          // cumulative Zipf popularity over classes
	preload  []int              // class of each preload flow
	platform string             // platform JSON handed to the daemon
	demand   map[string]float64 // B/s the preload offers each node
	rejects  []string           // body tails of the 16 over-SLO specs
}

const (
	paretoMin   = 64 << 10 // B/s
	paretoAlpha = 1.6
	paretoMax   = 64 << 20
	burstMedian = 4 << 10 // B
	burstSigma  = 0.8
	// burstMaxSeconds caps a burst at this many seconds of the flow's rate.
	burstMaxSeconds = 0.15
	mtu             = 1500
	numRejects      = 16
)

// newPopulation draws the classes by stratified sampling (class i takes the
// i-th of n equal-probability strata of each distribution) so the realized
// mix keeps its shape across seeds while every value still depends on seed.
func newPopulation(w *workload, seed uint64) *population {
	r := newRNG(seed, streamClasses)
	n := w.classes
	p := &population{w: w, seed: seed, classes: make([]class, n)}

	// Strata ascend, so class i holds the i-th smallest rate. Tiers go by
	// that rank — the fastest classes buy the tightest SLO — and bursts are
	// capped at burstMaxSeconds of the class's own rate, so every class fits
	// its SLO on an idle platform and only contention can reject it.
	tierFrom := make([]int, len(w.tiers))
	acc := 0.0
	for k, t := range w.tiers {
		tierFrom[k] = int(math.Round(acc * float64(n)))
		acc += t.share
	}
	for i := range p.classes {
		c := &p.classes[i]
		// The middle fifth of the stratum: the top one is otherwise unbounded.
		u := (float64(i) + 0.4 + 0.2*r.f64()) / float64(n)
		c.rate = math.Round(math.Min(paretoMin/math.Pow(1-u, 1/paretoAlpha), paretoMax))
		b := burstMedian * math.Exp(burstSigma*r.norm())
		if w.burstSeconds > 0 {
			b = w.burstSeconds * c.rate * (0.98 + 0.04*r.f64())
		}
		c.burst = math.Round(math.Max(512, math.Min(b, burstMaxSeconds*c.rate)))
		for k := range tierFrom {
			if i >= tierFrom[k] {
				c.tier = k
			}
		}
		// Paths interleave over the rate ranks by a golden-ratio sequence:
		// the shares hold exactly and no path collects one end of the ranks.
		v := math.Mod((float64(i)+0.5)*0.6180339887498949, 1)
		for acc := 0.0; c.path < len(w.pathShare)-1; c.path++ {
			if acc += w.pathShare[c.path]; v < acc {
				break
			}
		}
	}
	// Popularity rank j holds rate rank (5j + n/2) mod n: a fixed stride
	// (class counts are coprime to 5; a test checks every rank is used once)
	// that scatters the ranks, not a seeded shuffle, because with Zipf popularity
	// the few top classes carry most flows and whichever path and tier a
	// shuffle hands them sets the cost of the whole run (the share of flows on
	// the long path swung from 0.45 to 0.85 across ten seeds).
	byRate := p.classes
	p.classes = make([]class, n)
	for j := range p.classes {
		p.classes[j] = byRate[(5*j+n/2)%n]
	}

	for i := range p.classes {
		c := &p.classes[i]
		t := w.tiers[c.tier]
		c.maxDelay, _ = time.ParseDuration(t.maxDelay)
		c.minTput = math.Floor(t.minThroughputFrac * c.rate)
		c.tail = flowTail(w, c, t.maxDelay)
	}
	for j := 0; j < numRejects; j++ {
		c := p.classes[j%n]
		c.minTput = 0
		// No platform path is faster than 500 µs, so these can never fit.
		p.rejects = append(p.rejects, flowTail(w, &c, strconv.Itoa(j+1)+"us"))
	}

	p.cumPop = make([]float64, n)
	total := 0.0
	for i := range p.cumPop {
		total += math.Pow(float64(i+1), -w.popSkew)
		p.cumPop[i] = total
	}
	for i := range p.cumPop {
		p.cumPop[i] /= total
	}

	pr := newRNG(seed, streamPreload)
	p.preload = make([]int, w.preload)
	demand := make(map[string]float64)
	for i := range p.preload {
		ci := p.pickClass(pr)
		p.preload[i] = ci
		for _, node := range w.paths[p.classes[ci].path] {
			demand[node] += p.classes[ci].rate
		}
	}
	p.demand = demand
	p.platform = platformJSON(w, demand, 0)
	return p
}

func (p *population) pickClass(r *rng) int {
	return sort.SearchFloat64s(p.cumPop, r.f64())
}

// flowTail renders everything of a flow body after the id.
func flowTail(w *workload, c *class, maxDelay string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `,"arrival":{"rate":"%.0f","burst":"%.0f","max_packet":"%d"`, c.rate, c.burst, mtu)
	if w.threeBucket {
		// A fast short-term peak over a slower sustained rate: the minimum
		// of the three buckets is a 3-segment concave envelope.
		fmt.Fprintf(&b, `,"extra":[{"rate":"%.0f","burst":"%.0f"},{"rate":"%.0f","burst":"%.0f"}]`,
			4*c.rate, math.Round(c.burst/4), 2*c.rate, math.Round(c.burst/2))
	}
	b.WriteString(`},"path":[`)
	for i, n := range w.paths[c.path] {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(n))
	}
	fmt.Fprintf(&b, `],"slo":{"max_delay":%q`, maxDelay)
	if c.minTput > 0 {
		fmt.Fprintf(&b, `,"min_throughput":"%.0f"`, c.minTput)
	}
	b.WriteString("}}")
	return b.String()
}

func flowBody(id, tail string) string { return `{"id":"` + id + `"` + tail }

// platformJSON sizes every node at headroom × demand, plus bump B/s: a bump
// of a byte or two changes no verdict that is not on a knife edge but makes
// every curve of the platform digest-distinct.
func platformJSON(w *workload, demand map[string]float64, bump float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"name":%q,"rung":%q,"nodes":[`, w.name, w.rung)
	for i, n := range w.nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		// One MTU-sized block per activation, matching the flows' packet
		// size: a larger job block would charge every flow a job-fill
		// latency that dwarfs the tight SLO tiers.
		fmt.Fprintf(&b, `{"name":%q,"rate":"%.0f","latency":%q,"job_in":"%d","job_out":"%d","max_packet":"%d"}`,
			n.name, math.Round(w.headroom*demand[n.name])+bump, n.latency, mtu, mtu, mtu)
	}
	b.WriteString("]}")
	return b.String()
}

func preloadID(i int) string { return "p" + strconv.Itoa(i) }

// batch renders preload flows [from, to) as one /admit/batch body.
func (p *population) batch(from, to int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := from; i < to; i++ {
		if i > from {
			b.WriteByte(',')
		}
		b.WriteString(flowBody(preloadID(i), p.classes[p.preload[i]].tail))
	}
	b.WriteByte(']')
	return b.String()
}

// preloadBatches renders the preload as /admit/batch bodies of batchSize
// flows, in flow order.
func (p *population) preloadBatches() []string {
	var out []string
	for from := 0; from < len(p.preload); from += p.w.batchSize {
		out = append(out, p.batch(from, min(from+p.w.batchSize, len(p.preload))))
	}
	return out
}

// op is one planned operation. Admits and rejects carry their body; release
// and recheck carry only pick, which the lane resolves against the flows it
// holds when the op is issued (a lane is sequential, so that is exact).
type op struct {
	kind  opKind
	id    string // admit/reject: the fresh flow id
	class int    // admit: class index; reject: over-SLO spec index
	body  string
	pick  uint64
}

// planner is the deterministic op stream of one lane: the same (workload,
// seed, lane, mix) always yields the same sequence.
type planner struct {
	p    *population
	r    *rng
	lane int
	seq  int
	cum  [numKinds]float64
	// phase starts the lane's kind sequence. Kinds follow the golden-ratio
	// sequence frac(phase + seq·φ), not independent draws: any stretch of n ops
	// then holds each kind's share of n to within an op or two. An admit costs
	// fifty times a release on tight_replay, and with independent draws the
	// admit share of a 70-op window swung by ±6 %, and CPU per op with it.
	phase float64
}

func newPlanner(p *population, lane int, mix [numKinds]float64) *planner {
	pl := &planner{p: p, r: newRNG(p.seed, streamLaneBase+uint64(lane)), lane: lane}
	pl.phase = pl.r.f64()
	total := 0.0
	for k, m := range mix {
		total += m
		pl.cum[k] = total
	}
	for k := range pl.cum {
		pl.cum[k] /= total
	}
	return pl
}

func (pl *planner) next() op {
	_, u := math.Modf(pl.phase + float64(pl.seq)*0.6180339887498949)
	k := opAdmit
	for k < numKinds-1 && u >= pl.cum[k] {
		k++
	}
	o := op{kind: k, pick: pl.r.u64()}
	switch k {
	case opAdmit:
		o.class = pl.p.pickClass(pl.r)
		o.id = fmt.Sprintf("f%d-%d", pl.lane, pl.seq)
		o.body = flowBody(o.id, pl.p.classes[o.class].tail)
	case opReject:
		o.class = int(o.pick % numRejects)
		o.id = fmt.Sprintf("r%d-%d", pl.lane, pl.seq)
		o.body = flowBody(o.id, pl.p.rejects[o.class])
	}
	pl.seq++
	return o
}
