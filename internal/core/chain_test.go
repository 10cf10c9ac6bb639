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

	"streamcalc/internal/curve"
	"streamcalc/internal/units"
)

// screenSeed seeds the seed-25 draws of TestScreenDominatesBound,
// TestChainBoundIsChainPass and the θ-optimum tests; ROADMAP's time-axis
// item quotes the panic census this seed produces.
const screenSeed = 25

// screenFuzzSeeds is FuzzScreenDominatesBound's corpus.
var screenFuzzSeeds = []int64{1, 2, 3, screenSeed}

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

// censusKey names a recovered panic so that like panics count together: the
// rung, whether the envelope has one bucket or several, and the message with
// its numbers blanked.
func censusKey(p Pipeline, r any) string {
	buckets := "1 bucket"
	if len(p.Arrival.Extra) > 0 {
		buckets = "2-3 buckets"
	}
	return fmt.Sprintf("%-5v %-11s %s", p.Rung, buckets, numberRE.ReplaceAllString(fmt.Sprint(r), "#"))
}

// boundOrPanic is Bound with a panic recovered into a census key.
func boundOrPanic(p Pipeline) (b *Bounds, err error, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = censusKey(p, r)
		}
	}()
	b, err = Bound(p)
	return b, err, ""
}

// engineOrPanic runs the curve engine's chain pass for p at its rung — at the
// optimum's vector at fifo and tight — with a panic recovered into a census
// key.
func engineOrPanic(p Pipeline) (panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = censusKey(p, r)
		}
	}()
	var theta []float64
	if p.Rung.Resolved() != RungBlind {
		theta = optimum(p)
	}
	engineChain(p, theta)
	return ""
}

// screenOrPanic is the blind ChainBound with a panic recovered.
func screenOrPanic(p Pipeline) (delay float64, backlog units.Bytes, throughput units.Rate, ok bool, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	delay, backlog, throughput, ok = ChainBound(p.Arrival, p.Nodes, nil)
	return delay, backlog, throughput, ok, ""
}

// screenViolations holds one pipeline's blind ChainBound, the admission
// screen, against Bound at every rung, and the blind rung's bounds against
// those of the same pipeline under more cross traffic. Engine panics of the
// chain pass go to census (message -> count), ChainBound panics to
// screenPanics; the returned strings are violations.
func screenViolations(rng *rand.Rand, p Pipeline, census map[string]int, screenPanics *int) (bad []string, answered bool) {
	const tol = 1e-9
	engineBlind := true // the blind engine pass answered
	for _, r := range Rungs() {
		p.Rung = r
		if k := engineOrPanic(p); k != "" {
			census[k]++
			engineBlind = engineBlind && r != RungBlind
		}
	}
	delay, backlog, throughput, ok, panicked := screenOrPanic(p)
	if panicked != "" {
		*screenPanics++
		return []string{"ChainBound panicked: " + panicked}, false
	}
	var blind *Bounds
	for _, r := range Rungs() {
		p.Rung = r
		b, err, panicked := boundOrPanic(p)
		if panicked != "" {
			continue // the engine census above counts these
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
		case b.Delay > dur(delay*(1+tol)): // both rounded up to the nanosecond
			bad = append(bad, fmt.Sprintf("%v: delay %v above the screen's %v", r, b.Delay, dur(delay)))
		case float64(b.Backlog) > float64(backlog)*(1+tol):
			bad = append(bad, fmt.Sprintf("%v: backlog %v above the screen's %v", r, float64(b.Backlog), float64(backlog)))
		case float64(b.Throughput) < float64(throughput)*(1-tol):
			bad = append(bad, fmt.Sprintf("%v: throughput %v below the screen's %v", r, float64(b.Throughput), float64(throughput)))
		}
	}

	// Blind-rung isotonicity: more cross traffic at a node never helps. A
	// draw the blind engine pass panicked on is on the census and not probed,
	// which keeps the census on the draws it was first counted on.
	if blind == nil || blind.Overloaded || !engineBlind {
		return bad, ok
	}
	more := p
	more.Rung = RungBlind
	more.Nodes = append([]Node(nil), p.Nodes...)
	n := &more.Nodes[rng.Intn(len(more.Nodes))]
	n.CrossRate += (n.Rate - n.CrossRate).Mul(0.9 * rng.Float64())
	n.CrossBurst += units.Bytes(logUniform(rng, 1, 1e7))
	b, err := Bound(more)
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("more cross traffic below the node's rate: %v", err))
	case float64(b.Delay) < float64(blind.Delay)*(1-tol) || float64(b.Backlog) < float64(blind.Backlog)*(1-tol) ||
		float64(b.Throughput) > float64(blind.Throughput)*(1+tol):
		bad = append(bad, fmt.Sprintf("more cross traffic improved a blind bound: %v/%v/%v -> %v/%v/%v",
			blind.Delay, float64(blind.Backlog), float64(blind.Throughput), b.Delay, float64(b.Backlog), float64(b.Throughput)))
	}
	return bad, ok
}

// censusCeiling is the most curve-engine panics the chain pass at blind, fifo
// and tight may raise on TestScreenDominatesBound's seed: the count the engine
// reaches today, all of them the time-axis defect (ROADMAP). A change that
// heals more of the time axis lowers it; none may raise it.
const censusCeiling = 366

// The screen never passes what the analysis would fail: wherever the blind
// ChainBound answers, Bound at blind, fifo and tight succeeds, is not
// overloaded, and promises no more delay or backlog and no less throughput.
// ChainBound never panics. Panics inside the curve engine's chain pass are
// known at these magnitudes (ROADMAP, time-axis item): they are counted and
// logged, and fail the test only past censusCeiling.
func TestScreenDominatesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(screenSeed))
	census := map[string]int{}
	const trials = 10000
	var answered, failed, screenPanics int
	for trial := 0; trial < trials; trial++ {
		p := randomScreenPipeline(rng)
		bad, ok := screenViolations(rng, p, census, &screenPanics)
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
	t.Logf("seed %d: the screen answered %d of %d pipelines; %d ChainBound panics; %d engine panics recovered:\n%s",
		screenSeed, answered, trials, screenPanics, panics, strings.Join(kinds, "\n"))
	if screenPanics != 0 {
		t.Errorf("ChainBound panicked on %d pipelines", screenPanics)
	}
	if panics > censusCeiling {
		t.Errorf("%d engine panics recovered, above the ceiling of %d", panics, censusCeiling)
	}
}

// FuzzScreenDominatesBound is the same property with the generator seed as
// the fuzz input.
func FuzzScreenDominatesBound(f *testing.F) {
	for _, seed := range screenFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomScreenPipeline(rng)
		var screenPanics int
		bad, _ := screenViolations(rng, p, map[string]int{}, &screenPanics)
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
	delay, backlog, _, ok := ChainBound(p.Arrival, p.Nodes, nil)
	if !ok {
		t.Fatal("the screen declined a lightly loaded pipeline")
	}
	for _, r := range Rungs() {
		p.Rung = r
		b, err := Bound(p)
		if err != nil || b.Overloaded {
			t.Fatalf("%v: Bound = %+v, %v", r, b, err)
		}
		if b.Delay <= 0 || b.Delay > dur(delay*(1+1e-9)) || float64(b.Backlog) > float64(backlog)*(1+1e-9) {
			t.Errorf("%v: delay %v backlog %v, screen %v / %v", r, b.Delay, float64(b.Backlog), dur(delay), float64(backlog))
		}
	}
}

// chainDraw names one θ-vector of one draw in TestChainBoundIsChainPass:
// the draw's index in the seed-25 stream (or "fuzz-<seed>"), and the vector.
type chainDraw struct{ draw, vector string }

// chainEngineMisses lists the vectors on which ChainBound and the curve
// engine's chain pass disagree beyond the tolerance, each because the engine
// is off: on every one, the exact split-point value (splitBound) agrees with
// ChainBound within the tolerance, and the test checks that it still does.
var chainEngineMisses = func() map[chainDraw]string {
	const (
		late = "the engine's fold starts up to absEps(t) late: pessimistic, its backlog over by more than 1e-9"
		lost = "the engine's fold loses a node's latency shorter than absEps(t) at a large offset: optimistic"
	)
	return map[chainDraw]string{
		{"214", "optimum"}: late, {"1267", "optimum"}: late, {"2464", "optimum"}: late,
		{"2937", "optimum"}: late, {"3955", "optimum"}: late, {"4446", "grid1"}: late,
		{"5647", "optimum"}: late, {"5787", "optimum"}: late, {"6487", "optimum"}: late,
		{"6967", "optimum"}: late, {"7267", "optimum"}: late, {"7791", "optimum"}: late,
		{"8001", "optimum"}: late,
		{"5268", "grid2"}:   lost, {"6767", "optimum"}: lost, {"6991", "optimum"}: lost, {"6991", "grid0"}: lost,
	}
}()

// grid is a coarse θ-grid at cross hop h of a chain whose packetized arrival
// starts at a0 = α′(0⁺): ascending, 0, the latency T and the
// arrival-aware T + (b + a0)/Rf where they fall inside (0, θmax) and apart
// from the others by more than 1e-9·(1 + θ), and θmax.
func grid(h *hop, a0 float64) []float64 {
	tmax := (h.burst + h.full*h.latency) / float64(h.rate)
	g := []float64{0}
	if tmax <= 0 {
		return g
	}
	for _, th := range []float64{h.latency, h.latency + (h.burst+a0)/h.full, tmax} {
		if th <= 0 || th > tmax || (th < tmax && th > tmax-1e-9*(1+tmax)) {
			continue
		}
		i := sort.SearchFloat64s(g, th)
		if (i < len(g) && g[i]-th <= 1e-9*(1+th)) || (i > 0 && th-g[i-1] <= 1e-9*(1+th)) {
			continue
		}
		g = append(g[:i], append([]float64{th}, g[i:]...)...)
	}
	return g
}

// withinChainTol reports whether got matches want within the tolerance the
// chain evaluator is held to: 1 ns + 1e-9 relative for a delay in seconds,
// 1e-9 relative for a backlog.
func withinChainTol(gotDelay, wantDelay, gotBacklog, wantBacklog float64) bool {
	return math.Abs(gotDelay-wantDelay) <= 1e-9+1e-9*math.Abs(wantDelay) &&
		math.Abs(gotBacklog-wantBacklog) <= 1e-9*math.Abs(wantBacklog)
}

// The chain evaluator computes what the curve engine's chain pass computes:
// engineAnalyze at a θ-vector, then the horizontal and vertical deviation
// between AlphaPrime and ConcatenatedBeta. Checked on the 10 000 seed-25
// draws and the fuzz corpus at the blind residual (nil), the optimum's vector
// and three random vectors of the per-node θ-grids (see grid): the error,
// the overload, the bottleneck and the throughput match exactly, the delay
// within 1 ns + 1e-9 relative and the backlog within 1e-9 relative. Vectors
// outside that must be on chainEngineMisses, where the exact split-point
// value decides for ChainBound. Draws whose engine pass panics are skipped.
func TestChainBoundIsChainPass(t *testing.T) {
	type draw struct {
		name string
		p    Pipeline
	}
	type vector struct {
		name  string
		theta []float64
	}
	var draws []draw
	rng := rand.New(rand.NewSource(screenSeed))
	for trial := 0; trial < 10000; trial++ {
		draws = append(draws, draw{fmt.Sprint(trial), randomScreenPipeline(rng)})
	}
	for _, seed := range screenFuzzSeeds {
		draws = append(draws, draw{fmt.Sprintf("fuzz-%d", seed), randomScreenPipeline(rand.New(rand.NewSource(seed)))})
	}
	pick := rand.New(rand.NewSource(1)) // off the draws' stream
	seen := map[chainDraw]bool{}
	var checked, skipped int
	for _, d := range draws {
		p := d.p
		p.Rung = RungBlind
		vecs := []vector{{"blind", nil}}
		func() {
			defer func() {
				if recover() != nil {
					skipped++
				}
			}()
			w := newWalk(p.Arrival)
			hops := appendHops(nil, &w, p.Nodes)
			opt := optimum(p)
			if opt == nil {
				return // no cross traffic, or starved
			}
			vecs = append(vecs, vector{"optimum", opt})
			a0 := p.Arrival.envelopeAt(0) + float64(p.Arrival.MaxPacket)
			for k := 0; k < 3; k++ {
				theta := make([]float64, len(hops))
				for i := range hops {
					if hops[i].cross > 0 {
						g := grid(&hops[i], a0)
						theta[i] = g[pick.Intn(len(g))]
					}
				}
				vecs = append(vecs, vector{fmt.Sprintf("grid%d", k), theta})
			}
		}()
		for _, v := range vecs {
			key := chainDraw{d.name, v.name}
			func() {
				defer func() {
					if recover() != nil {
						skipped++
					}
				}()
				a, delay, backlog, err := engineChain(p, v.theta)
				rDelay, rBacklog, starved, w := chain(p.Arrival, p.Nodes, v.theta)
				var got error
				if starved >= 0 {
					got = starvation(p, starved)
				}
				if fmt.Sprint(got) != fmt.Sprint(err) {
					t.Fatalf("%v: ChainBound error %v, chain pass %v\npipeline %+v", key, got, err, p)
				}
				if err != nil {
					return
				}
				checked++
				if w.overloaded() != a.Overloaded || w.bottleneck != a.BottleneckIndex ||
					math.Float64bits(float64(w.throughput())) != math.Float64bits(float64(a.ThroughputLower)) {
					t.Fatalf("%v: overload/bottleneck/throughput %v/%d/%v, chain pass %v/%d/%v", key,
						w.overloaded(), w.bottleneck, w.throughput(), a.Overloaded, a.BottleneckIndex, a.ThroughputLower)
				}
				if a.Overloaded || withinChainTol(rDelay, delay, rBacklog, backlog) {
					return
				}
				seen[key] = true
				exactDelay, exactBacklog := splitBound(p.Arrival, engineMembers(a), 2*rDelay+1e-6)
				_, listed := chainEngineMisses[key]
				if !listed || !withinChainTol(rDelay, exactDelay, rBacklog, exactBacklog) {
					t.Errorf("%v (listed %v): ChainBound %.12g s / %.12g B, chain pass %.12g s / %.12g B, exact %.12g s / %.12g B",
						key, listed, rDelay, rBacklog, delay, backlog, exactDelay, exactBacklog)
				}
			}()
		}
	}
	for key := range chainEngineMisses {
		if !seen[key] {
			t.Errorf("%v is listed, but the chain pass agrees with ChainBound there", key)
		}
	}
	if checked < 40000 {
		t.Errorf("only %d vectors checked: the generator is off target", checked)
	}
	t.Logf("%d vectors checked, %d outside the tolerance (all listed), %d skipped on an engine panic", checked, len(seen), skipped)
}

// reportReservations is what Reservations computes, read off the report pass:
// every node's AlphaIn.UltimateAffine() times its GainBefore, with the burst
// clamped at 0, or the engine's panic.
func reportReservations(p Pipeline) (out []Bucket, err error, panicked any) {
	defer func() { panicked = recover() }()
	a, err := Analyze(p)
	if err != nil {
		return nil, err, nil
	}
	for _, na := range a.Nodes {
		rate, offset := na.AlphaIn.UltimateAffine()
		out = append(out, Bucket{Rate: units.Rate(rate * na.GainBefore), Burst: units.Bytes(max(0, offset) * na.GainBefore)})
	}
	return out, nil, nil
}

// oneStep is the curve engine's propagation of the reservation in through
// node k of a, (in ⊗ γ) ⊘ β as the report pass computes it but from the
// affine curve alone, read off as the next node's reservation: a referee
// free of the far breakpoints the chain accumulates. ok is false when the
// engine panics.
func oneStep(a *Analysis, k int, in Bucket) (b Bucket, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	na, g := a.Nodes[k], a.Nodes[k].GainBefore
	alpha := curve.Affine(float64(in.Rate)/g, float64(in.Burst)/g)
	out, _ := curve.Deconvolve(curve.Convolve(alpha, na.Gamma), na.Beta)
	rate, offset := out.UltimateAffine()
	g = a.Nodes[k+1].GainBefore
	return Bucket{Rate: units.Rate(rate * g), Burst: units.Bytes(max(0, offset) * g)}, true
}

// Reservations is the report pass's reservation in scalars: on the 10 000
// seed-25 draws and the fuzz corpus, at every rung, the error matches and
// every node's rate and burst lie within 1e-8 relative + 1e-9 absolute of
// AlphaIn.UltimateAffine() times the gain. Hop by hop, the engine's one-step propagation of
// Reservations' bucket into a node that is not overloaded gives Reservations'
// next bucket within 1e-9 relative + 1e-9 absolute, wherever that step does
// not panic. Where the engine panics, Reservations answers without panicking,
// with finite buckets.
func TestReservationsIsReportPass(t *testing.T) {
	var draws []Pipeline
	rng := rand.New(rand.NewSource(screenSeed))
	for trial := 0; trial < 10000; trial++ {
		draws = append(draws, randomScreenPipeline(rng))
	}
	for _, seed := range screenFuzzSeeds {
		draws = append(draws, randomScreenPipeline(rand.New(rand.NewSource(seed))))
	}
	near := func(got, want Bucket, rel float64) bool {
		return math.Abs(float64(got.Rate-want.Rate)) <= rel*math.Abs(float64(want.Rate))+1e-9 &&
			math.Abs(float64(got.Burst-want.Burst)) <= rel*math.Abs(float64(want.Burst))+1e-9
	}
	for _, r := range Rungs() {
		var checked, panicked int
		for i, p := range draws {
			p.Rung = r
			got, err := Reservations(p)
			want, wantErr, engine := reportReservations(p)
			if engine != nil {
				panicked++
				for k, b := range got {
					if v := float64(b.Rate) + float64(b.Burst); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%v draw %d node %d: the engine panics, Reservations answers %+v", r, i, k, b)
					}
				}
				continue
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%v draw %d: error %v, report pass %v", r, i, err, wantErr)
			}
			if err != nil {
				continue
			}
			checked++
			a, _ := Analyze(p)
			for k := range want {
				if k > 0 && !a.Nodes[k-1].Overloaded {
					if ref, ok := oneStep(a, k-1, got[k-1]); ok && !near(got[k], ref, 1e-9) {
						t.Errorf("%v draw %d node %d: Reservations %.17g B/s %.17g B, one step of the engine %.17g B/s %.17g B",
							r, i, k, float64(got[k].Rate), float64(got[k].Burst), float64(ref.Rate), float64(ref.Burst))
					}
				}
				if !near(got[k], want[k], 1e-8) {
					t.Errorf("%v draw %d node %d: Reservations %.17g B/s %.17g B, report pass %.17g B/s %.17g B",
						r, i, k, float64(got[k].Rate), float64(got[k].Burst), float64(want[k].Rate), float64(want[k].Burst))
				}
			}
		}
		if checked < 9500 {
			t.Errorf("%v: only %d draws checked", r, checked)
		}
		t.Logf("%v: %d draws checked, %d where the engine panics", r, checked, panicked)
	}
}

// Two branches the seed-25 draws do not reach, by hand, against the report
// pass. Of two buckets of one rate the lesser burst bounds the flow. A node
// whose best-case rate γ is below the flow's rate caps what it passes on at
// MaxRate·t: an upstream BestGain of 4 refers b's MaxRate of 30 B/s to 7.5 B/s
// of input, below the flow's 10 B/s, so c reserves 7.5·t + 7.5·1 s, where the
// (10, 100) bucket carried on would give (10, 120).
func TestReservationsByHand(t *testing.T) {
	cases := []struct {
		name string
		p    Pipeline
		want []Bucket
	}{
		{"tied rates", Pipeline{
			Arrival: Arrival{Rate: 10, Burst: 100, Extra: []Bucket{{Rate: 10, Burst: 40}}},
			Nodes:   []Node{{Name: "a", Rate: 100, Latency: time.Second, JobIn: 1, JobOut: 1}, {Name: "b", Rate: 100, JobIn: 1, JobOut: 1}},
		}, []Bucket{{10, 40}, {10, 50}}},
		{"MaxRate cap", Pipeline{Arrival: Arrival{Rate: 10, Burst: 100}, Nodes: []Node{
			{Name: "a", Rate: 100, Latency: time.Second, JobIn: 1, JobOut: 1, BestGain: 4},
			{Name: "b", Rate: 30, MaxRate: 30, Latency: time.Second, JobIn: 1, JobOut: 1},
			{Name: "c", Rate: 50, JobIn: 1, JobOut: 1},
		}}, []Bucket{{10, 100}, {10, 110}, {7.5, 7.5}}},
	}
	near := func(a, b Bucket) bool {
		return math.Abs(float64(a.Rate-b.Rate)) <= 1e-12 && math.Abs(float64(a.Burst-b.Burst)) <= 1e-9
	}
	for _, c := range cases {
		got, err := Reservations(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		report, _, _ := reportReservations(c.p)
		for k, w := range c.want {
			if !near(got[k], w) || !near(report[k], w) {
				t.Errorf("%s node %d: Reservations %+v, report pass %+v, want %+v", c.name, k, got[k], report[k], w)
			}
		}
	}
}

// ResidualAt is what the replay stages read of the curve engine's left-over
// member: its ultimate rate, and the latency of the least rate-latency curve
// at that rate nowhere below it, over nodes with and without cross traffic
// and θ from 0 (the blind residual) to twice the blind residual's latency.
func TestResidualAtIsMemberMajorant(t *testing.T) {
	rng := rand.New(rand.NewSource(screenSeed))
	// majorant is inf over t of t − resid(t)/s, on resid's breakpoints from
	// its latency on (right limits): every slope of a left-over member is at
	// most its ultimate slope s.
	majorant := func(resid curve.Curve) float64 {
		s := resid.UltimateSlope()
		lat := resid.Latency()
		best := lat
		for _, x := range resid.Breakpoints() {
			if x >= lat {
				best = min(best, x-resid.Value(x)/s)
			}
		}
		return max(0, best)
	}
	var members int
	for trial := 0; trial < 20000; trial++ {
		rate := logUniform(rng, 1e3, 1e9)
		n := Node{Name: "n", Rate: units.Rate(rate), JobIn: 1, JobOut: 1,
			Latency: time.Duration(logUniform(rng, 1e3, 1e7))}
		if rng.Intn(4) > 0 {
			n.CrossRate = units.Rate(rate * 0.97 * rng.Float64())
			n.CrossBurst = units.Bytes(logUniform(rng, 1e2, 1e7))
		}
		full := curve.RateLatency(float64(n.Rate), n.Latency.Seconds())
		cross := curve.Affine(float64(n.CrossRate), float64(n.CrossBurst))
		theta := 0.0
		if rng.Intn(3) > 0 {
			theta = 2 * rng.Float64() * (float64(n.CrossBurst) + rate*n.Latency.Seconds()) / (rate - float64(n.CrossRate))
		}
		want, ok := full, true
		switch {
		case n.CrossRate <= 0:
		case theta > 0:
			want, ok = curve.FIFOResidual(full, cross, theta)
			members++
		default:
			want, ok = curve.ResidualService(full, cross)
		}
		rateGot, lat, okGot := ResidualAt(n, theta)
		if ok != okGot {
			t.Fatalf("trial %d: %+v at θ %v: ok %v, engine %v", trial, n, theta, okGot, ok)
		}
		wantLat := majorant(want)
		if math.Abs(float64(rateGot)-want.UltimateSlope()) > 1e-12*rate ||
			math.Abs(lat-wantLat) > 4e-9*(1+wantLat) {
			t.Fatalf("trial %d: %+v at θ %v: %v·[t − %v]⁺, engine %v·[t − %v]⁺ from %v",
				trial, n, theta, rateGot, lat, want.UltimateSlope(), wantLat, want)
		}
	}
	if members < 5000 {
		t.Errorf("only %d draws with θ > 0 and cross traffic", members)
	}
}

// Reservations builds no curve at any rung: every curve operator allocates
// its result, and Reservations allocates only what it returns, plus the
// θ-vector at fifo and tight.
func TestReservationsCurveOps(t *testing.T) {
	p := chainOpsPipeline()
	for _, r := range Rungs() {
		p.Rung = r
		want := 2.0
		if r == RungBlind {
			want = 1
		}
		if n := testing.AllocsPerRun(100, func() { Reservations(p) }); n != want {
			t.Errorf("%v: %v allocs per call, want %v", r, n, want)
		}
	}
}

// The curve engine's fold of the winning tight vector on seed-25 draws 2534
// and 5713 went through ConvolveExact, which lost a short latency at a large
// offset and lay above the exact convolution: an optimistic chain. Bound's
// delay there is now ChainBound's, and no lower than the exact split-point
// value at the winning vector.
func TestTightBoundNotBelowSplitPoint(t *testing.T) {
	want := map[int]bool{2534: true, 5713: true}
	rng := rand.New(rand.NewSource(screenSeed))
	for trial := 0; len(want) > 0; trial++ {
		p := randomScreenPipeline(rng)
		if !want[trial] {
			continue
		}
		delete(want, trial)
		p.Rung = RungTight
		b, err := Bound(p)
		if err != nil || b.Overloaded {
			t.Fatalf("draw %d: Bound = %+v, %v", trial, b, err)
		}
		a, err := engineAnalyze(p, b.FIFOTheta, false)
		if err != nil {
			t.Fatal(err)
		}
		delay, _, _, _ := ChainBound(p.Arrival, p.Nodes, b.FIFOTheta)
		exact, _ := splitBound(p.Arrival, engineMembers(a), 2*delay+1e-6)
		if delay < exact*(1-1e-12) || b.Delay < dur(exact)-time.Nanosecond {
			t.Errorf("draw %d: Bound's delay %v (%.12g s), below the exact %.12g s", trial, b.Delay, delay, exact)
		}
	}
}

// A cross node with no latency: the blind residual of RateLatency(R, 0)
// against b + r·t is (R − r)·[t − b/(R − r)]⁺, not (R − r)·t, so blind Bound
// promises (b + 10)/(R − r). Its FIFO members are no longer pinned to θ = 0:
// at fifo and tight the flow's burst waits only behind the cross burst, at the
// full rate, (b + 10)/R — the exact FIFO worst case. The report pass reads the
// same residual: Analyze's Beta at the node starts at ChainBound's blind D,
// and FIFOThetaMax, the node's cap on θ, is that latency, not 0.
func TestBoundZeroLatencyCrossNode(t *testing.T) {
	p := Pipeline{
		Arrival: Arrival{Rate: 1, Burst: 10},
		Nodes:   []Node{{Name: "n", Rate: 100, JobIn: 1, JobOut: 1, CrossRate: 40, CrossBurst: 500}},
	}
	for _, r := range Rungs() {
		p.Rung = r
		b, err := Bound(p)
		if err != nil {
			t.Fatal(err)
		}
		want, why := 8500*time.Millisecond, "(500 + 10)/60 s"
		if r != RungBlind {
			want, why = 5100*time.Millisecond, "(500 + 10)/100 s"
		}
		if b.Delay < want || b.Delay > want+time.Nanosecond { // rounded up
			t.Errorf("%v: delay %v, want %s = %v", r, b.Delay, why, want)
		}
	}

	p.Rung = RungBlind
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	w := newWalk(p.Arrival)
	hops := appendHops(nil, &w, p.Nodes)
	d, _, _, _ := hops[0].member(0)
	if got := a.Nodes[0].Beta.Latency(); math.Abs(got-d) > 1e-9*d {
		t.Errorf("Analyze's Beta latency %.12g s, ChainBound's blind D %.12g s", got, d)
	}
	if tmax, ok := curve.FIFOThetaMax(hops[0].service()); !ok || tmax <= 0 {
		t.Errorf("FIFOThetaMax = %g, %t, want > 0", tmax, ok)
	}
}

// chainOpsPipeline is BenchmarkBound's 3-node path, every node carrying cross
// traffic.
func chainOpsPipeline() Pipeline {
	p := Pipeline{
		Name:    "bench",
		Arrival: Arrival{Rate: 10 * units.MiBPerSec, Burst: 64 * units.KiB, MaxPacket: 4 * units.KiB},
	}
	for i, rate := range []units.Rate{200 * units.MiBPerSec, 50 * units.MiBPerSec, 120 * units.MiBPerSec} {
		p.Nodes = append(p.Nodes, Node{
			Name: string(rune('a' + i)), Rate: rate, Latency: time.Duration(200*(i+1)) * time.Microsecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB,
			CrossRate: rate.Mul(0.4), CrossBurst: 256 * units.KiB,
		})
	}
	return p
}

// raceEnabled is set under the race detector (race_test.go), whose
// instrumentation costs Bound and BoundAt one allocation more per call.
var raceEnabled bool

// boundAllocs is what one Bound or BoundAt allocates: the Bounds it returns,
// and under the race detector one allocation more.
func boundAllocs() float64 {
	if raceEnabled {
		return 2
	}
	return 1
}

// Bounds are off the curve engine, on BenchmarkBound's pipeline: every
// curve operator allocates its result, and Bound at every rung and BoundAt
// allocate only the Bounds they return (CI's BenchmarkBound gate), ChainBound
// nothing (BenchmarkChainBound's).
func TestBoundCurveOps(t *testing.T) {
	p := chainOpsPipeline()
	theta := []float64{1e-3, 2e-3, 3e-3}
	type op struct {
		f    func()
		want float64
	}
	ops := map[string]op{
		"ChainBound": {func() { ChainBound(p.Arrival, p.Nodes, theta) }, 0},
		"BoundAt":    {func() { BoundAt(p, theta) }, boundAllocs()},
	}
	for _, r := range Rungs() {
		pr := p
		pr.Rung = r
		ops[r.String()+" Bound"] = op{func() { Bound(pr) }, boundAllocs()}
	}
	for name, o := range ops {
		if n := testing.AllocsPerRun(100, o.f); n != o.want {
			t.Errorf("%s: %v allocs per call, want %v", name, n, o.want)
		}
	}
}

// chainAllocPipeline is an 8-node, 3-bucket chain, every other node carrying
// cross traffic: the most ChainBound holds on the stack.
func chainAllocPipeline() (Pipeline, []float64) {
	p := Pipeline{Arrival: Arrival{Rate: 1e6, Burst: 1e5, MaxPacket: 1500,
		Extra: []Bucket{{Rate: 4e6, Burst: 2e4}, {Rate: 2e7, Burst: 4e3}}}}
	theta := make([]float64, 8)
	for i := range theta {
		n := Node{Name: fmt.Sprint(i), Rate: units.Rate(1e7 * float64(i+2)), Latency: time.Duration(i+1) * time.Millisecond,
			JobIn: 1500, JobOut: 1500, MaxPacket: 1500}
		if i%2 == 0 {
			n.CrossRate, n.CrossBurst = n.Rate.Mul(0.3), 1e5
			theta[i] = float64(i+1) * 1e-3
		}
		p.Nodes = append(p.Nodes, n)
	}
	return p, theta
}

// ChainBound allocates nothing up to 8 nodes and 8 buckets, and past that
// spills to the heap with the same answer as the chain evaluator built there.
func TestChainBoundAllocs(t *testing.T) {
	p, theta := chainAllocPipeline()
	if n := testing.AllocsPerRun(100, func() { ChainBound(p.Arrival, p.Nodes, theta) }); n != 0 {
		t.Errorf("ChainBound: %v allocs/op, want 0", n)
	}
	long := p
	long.Nodes = append(append([]Node(nil), p.Nodes...), p.Nodes...)
	long.Arrival.Extra = append(append([]Bucket(nil), p.Arrival.Extra...), p.Arrival.Extra...)
	for len(long.Arrival.Extra) < 9 {
		long.Arrival.Extra = append(long.Arrival.Extra, Bucket{Rate: 3e7, Burst: 5e3})
	}
	theta = append(theta, theta...)
	d, b, _, ok := ChainBound(long.Arrival, long.Nodes, theta)
	a, delay, backlog, err := engineChain(long, theta)
	if !ok || err != nil || a.Overloaded || !withinChainTol(d, delay, float64(b), backlog) {
		t.Errorf("16 nodes, 11 buckets: ChainBound %v s / %v B (ok %v), chain pass %v s / %v B (%v)", d, float64(b), ok, delay, backlog, err)
	}
}

// BenchmarkChainBound prices one chain bound at a θ-vector: a victim screen,
// a BoundAt, one vector of the tight search.
func BenchmarkChainBound(b *testing.B) {
	p, theta := chainAllocPipeline()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := ChainBound(p.Arrival, p.Nodes, theta); !ok {
			b.Fatal("overloaded")
		}
	}
}
