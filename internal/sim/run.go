package sim

import (
	"math"
	"sort"
	"time"

	"streamcalc/internal/des"
	"streamcalc/internal/stats"
	"streamcalc/internal/units"
)

// span is a contiguous chunk of flowing data: local bytes plus the
// input-referred bytes they correspond to.
type span struct {
	local float64
	input float64
	// tIn is the arrival time of the span's oldest byte at the current
	// queue (for per-stage sojourn measurement).
	tIn float64
}

// byteQueue is a FIFO of spans with byte-level granularity: pops may split
// spans, attributing input-referred bytes proportionally.
type byteQueue struct {
	spans      []span
	head       int
	localBytes float64
	inputBytes float64
	capLocal   float64 // 0 = unbounded
	wmLocal    stats.Watermark
	wmInput    stats.Watermark
}

func (q *byteQueue) hasSpace(local float64) bool {
	return q.capLocal == 0 || q.localBytes+local <= q.capLocal+1e-9
}

func (q *byteQueue) push(s span) {
	q.spans = append(q.spans, s)
	q.localBytes += s.local
	q.inputBytes += s.input
	q.wmLocal.Set(q.localBytes)
	q.wmInput.Set(q.inputBytes)
}

// pop removes exactly amount local bytes (amount must be <= localBytes up to
// rounding) and returns the covered span.
func (q *byteQueue) pop(amount float64) span {
	out := span{tIn: math.Inf(1)}
	remaining := amount
	for remaining > 1e-12 && q.head < len(q.spans) {
		s := &q.spans[q.head]
		if s.local <= remaining+1e-12 {
			out.local += s.local
			out.input += s.input
			if s.tIn < out.tIn {
				out.tIn = s.tIn
			}
			remaining -= s.local
			q.head++
			continue
		}
		frac := remaining / s.local
		out.local += remaining
		out.input += s.input * frac
		if s.tIn < out.tIn {
			out.tIn = s.tIn
		}
		s.input -= s.input * frac
		s.local -= remaining
		remaining = 0
	}
	if q.head > 1024 && q.head*2 > len(q.spans) {
		q.spans = append([]span(nil), q.spans[q.head:]...)
		q.head = 0
	}
	q.localBytes -= out.local
	q.inputBytes -= out.input
	if q.localBytes < 0 {
		q.localBytes = 0
	}
	if q.inputBytes < 0 {
		q.inputBytes = 0
	}
	return out
}

// stage is the runtime state machine for one pipeline stage.
type stage struct {
	cfg StageConfig
	run *run
	idx int
	rng *des.RNG

	in   byteQueue
	next *stage // nil means the sink follows

	busy         bool
	blocked      bool
	pendingOut   span
	upstreamDone bool
	doneSent     bool

	jobs         int64
	busyTime     float64
	blockedSince float64
	blockedTime  float64
	firstInput   float64
	lastOutput   float64
	sawInput     bool
	stallAccum   float64
	stalls       int64
	sojourn      stats.Summary
}

// run owns the simulator and all runtime state for one execution.
type run struct {
	p   *Pipeline
	sim *des.Simulator

	stages []*stage
	srcRNG *des.RNG

	// Source state.
	emitted    float64 // bytes offered so far
	srcDone    bool
	srcBlocked bool
	// Emission log for virtual-delay lookup: cumulative input after each
	// emission and its time.
	emitT   []float64
	emitCum []float64

	// Sink state.
	cumOut       float64
	delays       stats.Summary
	delaySamples []float64 // raw per-departure delays, for quantiles
	backlog      stats.Watermark
	lastT        float64

	inTrace, outTrace *trace

	// Telemetry (nil when detached; every probe site is one nil check).
	pr *probes
	tr *tracer
}

func newRun(p *Pipeline) *run {
	r := &run{p: p, sim: &des.Simulator{}}
	r.srcRNG = des.NewRNG(p.seed, 0)
	r.inTrace = newTrace(4096)
	r.outTrace = newTrace(4096)
	if p.reg != nil {
		r.pr = newProbes(p.reg, p.stages)
		r.sim.SetObserver(r.pr.observer())
	}
	if p.tw != nil {
		r.tr = newTracer(p.tw, p.stages)
	}
	var next *stage
	for i := len(p.stages) - 1; i >= 0; i-- {
		st := &stage{cfg: p.stages[i], run: r, idx: i, next: next}
		st.rng = des.NewRNG(p.seed, uint64(i)+1)
		st.in.capLocal = float64(p.stages[i].QueueCap)
		next = st
	}
	for st := next; st != nil; st = st.next {
		r.stages = append(r.stages, st)
	}
	return r
}

func (r *run) start() {
	// An envelope source plays its buckets' bursts itself (sourceTick), and
	// SourceConfig.Burst is ignored in that mode.
	if r.p.src.Burst > 0 && len(r.p.src.Envelope) == 0 {
		r.sim.Schedule(0, func() { r.emit(float64(r.p.src.Burst)) })
	}
	r.sim.Schedule(0, r.sourceTick)
}

// sourceTick emits the next packet if the first queue has space, otherwise
// marks the source blocked; the queue wakes it on space.
func (r *run) sourceTick() {
	if r.srcDone {
		return
	}
	total := float64(r.p.src.TotalInput)
	if r.emitted >= total-1e-9 {
		r.finishSource()
		return
	}
	size := math.Min(float64(r.p.src.PacketSize), total-r.emitted)
	first := r.stages[0]
	if !first.in.hasSpace(size) {
		r.srcBlocked = true
		return
	}
	r.emit(size)
	if r.emitted >= total-1e-9 {
		r.finishSource()
		return
	}
	var gap float64
	switch {
	case len(r.p.src.Envelope) > 0:
		// Greedy envelope playback: the next packet goes out at the
		// earliest time every bucket allows emitted+P total bytes.
		next := math.Min(float64(r.p.src.PacketSize), total-r.emitted)
		t := r.sim.Now()
		for _, b := range r.p.src.Envelope {
			need := (r.emitted + next - float64(b.Burst)) / float64(b.Rate)
			if need > t {
				t = need
			}
		}
		gap = t - r.sim.Now()
	case r.p.src.Poisson:
		gap = r.srcRNG.Exp(float64(r.p.src.PacketSize) / float64(r.p.src.Rate))
	default:
		gap = size / float64(r.p.src.Rate)
	}
	r.sim.Schedule(gap, r.sourceTick)
}

func (r *run) emit(size float64) {
	r.emitted += size
	r.emitT = append(r.emitT, r.sim.Now())
	r.emitCum = append(r.emitCum, r.emitted)
	r.inTrace.add(r.sim.Now(), r.emitted)
	r.backlog.Set(r.emitted - r.cumOut)
	if r.pr != nil {
		r.pr.inputBytes.Set(r.emitted)
		r.pr.backlog.Set(r.emitted - r.cumOut)
	}
	if r.tr != nil {
		r.tr.input(r.sim.Now(), r.emitted)
	}
	first := r.stages[0]
	first.onArrival(span{local: size, input: size})
}

func (r *run) finishSource() {
	r.srcDone = true
	r.stages[0].upstreamDone = true
	r.stages[0].tryStart()
}

// inputTimeOf returns the time at which the cumulative offered input first
// reached cum.
func (r *run) inputTimeOf(cum float64) float64 {
	i := sort.SearchFloat64s(r.emitCum, cum-1e-6)
	if i >= len(r.emitT) {
		i = len(r.emitT) - 1
	}
	if i < 0 {
		return 0
	}
	return r.emitT[i]
}

// deliver is called by the last stage: data leaves the system.
func (r *run) deliver(s span) {
	now := r.sim.Now()
	r.cumOut += s.input
	r.outTrace.add(now, r.cumOut)
	r.backlog.Set(r.emitted - r.cumOut)
	d := now - r.inputTimeOf(r.cumOut)
	if d < 0 {
		d = 0
	}
	r.delays.Add(d)
	r.delaySamples = append(r.delaySamples, d)
	r.lastT = now
	if r.pr != nil {
		r.pr.outBytes.Set(r.cumOut)
		r.pr.backlog.Set(r.emitted - r.cumOut)
	}
	if r.tr != nil {
		r.tr.output(now, r.cumOut)
	}
}

// onArrival receives a span into the stage's input queue.
func (st *stage) onArrival(s span) {
	if !st.sawInput {
		st.sawInput = true
		st.firstInput = st.run.sim.Now()
	}
	s.tIn = st.run.sim.Now()
	st.in.push(s)
	st.noteQueueLevel()
	st.tryStart()
}

// noteQueueLevel publishes the stage's current input-queue occupancy to the
// attached metrics registry and trace, if any.
func (st *stage) noteQueueLevel() {
	r := st.run
	if r.pr != nil {
		r.pr.queue[st.idx].Set(st.in.localBytes)
	}
	if r.tr != nil {
		r.tr.queueLevel(st.idx, r.sim.Now(), st.in.localBytes)
	}
}

// ready reports whether a job (full or flush) can start.
func (st *stage) ready() (amount float64, ok bool) {
	jobIn := float64(st.cfg.JobIn)
	if st.in.localBytes >= jobIn-1e-9 {
		return math.Min(jobIn, st.in.localBytes), true
	}
	if st.upstreamDone && st.in.localBytes > 1e-9 {
		return st.in.localBytes, true // final partial flush
	}
	return 0, false
}

func (st *stage) tryStart() {
	if st.busy || st.blocked {
		return
	}
	amount, ok := st.ready()
	if !ok {
		st.maybePropagateDone()
		return
	}
	job := st.in.pop(amount)
	st.noteQueueLevel()
	st.notifyUpstreamSpace()
	frac := amount / float64(st.cfg.JobIn)
	if frac > 1 {
		frac = 1
	}
	var exec float64
	minE, maxE := st.cfg.MinExec.Seconds(), st.cfg.MaxExec.Seconds()
	if st.cfg.ExpExec {
		exec = st.rng.Exp((minE + maxE) / 2)
	} else {
		exec = st.rng.Uniform(minE, maxE)
		if minE == maxE {
			exec = minE
		}
	}
	exec *= frac
	if st.jobs == 0 && st.cfg.Startup > 0 {
		exec += st.cfg.Startup.Seconds()
	}
	if st.cfg.StallEvery > 0 && st.cfg.StallFor > 0 {
		st.stallAccum += exec
		var jobStalls int64
		for st.stallAccum >= st.cfg.StallEvery.Seconds() {
			st.stallAccum -= st.cfg.StallEvery.Seconds()
			exec += st.cfg.StallFor.Seconds()
			st.stalls++
			jobStalls++
		}
		if jobStalls > 0 {
			r := st.run
			if r.pr != nil {
				r.pr.stalls[st.idx].Add(uint64(jobStalls))
				r.pr.stallT[st.idx].Add(float64(jobStalls) * st.cfg.StallFor.Seconds())
			}
			if r.tr != nil {
				r.tr.stall(st.idx, r.sim.Now(), float64(jobStalls)*st.cfg.StallFor.Seconds())
			}
		}
	}
	gain := 1.0
	if st.cfg.GainFn != nil {
		gain = st.cfg.GainFn(st.rng)
	}
	out := span{local: float64(st.cfg.JobOut) * frac * gain, input: job.input}
	st.busy = true
	st.jobs++
	st.busyTime += exec
	if st.run.pr != nil {
		st.run.pr.jobs[st.idx].Inc()
	}
	jobArrival := job.tIn
	startT := st.run.sim.Now()
	execDur := exec
	jobLocal := job.local
	st.run.sim.Schedule(exec, func() {
		if st.run.tr != nil {
			st.run.tr.jobSpan(st.idx, st.cfg.Name, startT, execDur, jobLocal, out.local, out.input)
		}
		st.recordSojourn(jobArrival)
		st.finish(out)
	})
}

func (st *stage) finish(out span) {
	st.busy = false
	st.lastOutput = st.run.sim.Now()
	st.push(out)
}

// recordSojourn notes the stage residence time of the job whose oldest
// byte arrived at tIn.
func (st *stage) recordSojourn(tIn float64) {
	if !math.IsInf(tIn, 1) {
		d := st.run.sim.Now() - tIn
		st.sojourn.Add(d)
		if st.run.pr != nil {
			st.run.pr.sojourn[st.idx].Observe(d)
		}
	}
}

// push attempts to hand out downstream, blocking on backpressure.
func (st *stage) push(out span) {
	if st.next == nil {
		st.run.deliver(out)
		st.afterPush()
		return
	}
	if out.local <= 1e-12 {
		// A filter may emit nothing; account the input data as consumed
		// (it leaves the system here, input-referred accounting keeps it).
		st.next.onArrival(out)
		st.afterPush()
		return
	}
	if st.next.in.hasSpace(out.local) {
		st.next.onArrival(out)
		st.afterPush()
		return
	}
	st.blocked = true
	st.blockedSince = st.run.sim.Now()
	st.pendingOut = out
}

func (st *stage) afterPush() {
	st.tryStart()
	st.maybePropagateDone()
}

// notifyUpstreamSpace wakes a blocked upstream element (stage or source)
// after this stage consumed from its input queue.
func (st *stage) notifyUpstreamSpace() {
	r := st.run
	if st.idx == 0 {
		if r.srcBlocked {
			r.srcBlocked = false
			r.sim.Schedule(0, r.sourceTick)
		}
		return
	}
	up := r.stages[st.idx-1]
	if up.blocked && st.in.hasSpace(up.pendingOut.local) {
		up.blocked = false
		blockedFor := r.sim.Now() - up.blockedSince
		up.blockedTime += blockedFor
		if r.pr != nil {
			r.pr.blocked[up.idx].Add(blockedFor)
		}
		if r.tr != nil && blockedFor > 0 {
			r.tr.blockedSpan(up.idx, up.blockedSince, blockedFor)
		}
		out := up.pendingOut
		up.pendingOut = span{}
		r.sim.Schedule(0, func() {
			st.onArrival(out)
			up.afterPush()
		})
	}
}

// maybePropagateDone tells the next stage that no more input will come once
// this stage is fully drained.
func (st *stage) maybePropagateDone() {
	if st.doneSent || !st.upstreamDone {
		return
	}
	if st.busy || st.blocked || st.in.localBytes > 1e-9 {
		return
	}
	if st.in.inputBytes > 1e-9 {
		// Residual input-referred accounting with no local payload (a
		// filter dropped the tail): forward it so conservation holds.
		resid := span{local: 0, input: st.in.inputBytes}
		st.in.spans = nil
		st.in.head = 0
		st.in.inputBytes = 0
		st.in.localBytes = 0
		st.push(resid)
		return
	}
	st.doneSent = true
	if st.next != nil {
		st.next.upstreamDone = true
		st.next.tryStart()
		st.next.maybePropagateDone()
	}
}

func (r *run) result() (*Result, error) {
	res := &Result{
		Elapsed:     dur(r.lastT),
		InputBytes:  units.Bytes(r.emitted),
		OutputInput: units.Bytes(r.cumOut),
		MaxBacklog:  units.Bytes(r.backlog.Peak()),
		Input:       r.inTrace.points(),
		Output:      r.outTrace.points(),
	}
	if r.lastT > 0 {
		res.Throughput = units.Rate(r.cumOut / r.lastT)
	}
	if r.delays.N() > 0 {
		res.DelayMin = dur(r.delays.Min())
		res.DelayMean = dur(r.delays.Mean())
		res.DelayMax = dur(r.delays.Max())
		res.DelayP50 = dur(stats.Quantile(r.delaySamples, 0.5))
		res.DelayP99 = dur(stats.Quantile(r.delaySamples, 0.99))
	}
	for _, st := range r.stages {
		sr := StageResult{
			Name:          st.cfg.Name,
			Jobs:          st.jobs,
			Stalls:        st.stalls,
			MaxQueueLocal: units.Bytes(st.in.wmLocal.Peak()),
			MaxQueueInput: units.Bytes(st.in.wmInput.Peak()),
			BlockedTime:   dur(st.blockedTime),
		}
		if st.sojourn.N() > 0 {
			sr.SojournMean = dur(st.sojourn.Mean())
			sr.SojournMax = dur(st.sojourn.Max())
		}
		if span := st.lastOutput - st.firstInput; span > 0 {
			sr.Utilization = st.busyTime / span
		}
		res.Stages = append(res.Stages, sr)
	}
	return res, nil
}

func dur(s float64) time.Duration {
	if s >= float64(math.MaxInt64)/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(s * float64(time.Second))
}

// trace is a decimating trajectory recorder: it keeps at most cap points by
// doubling its sampling stride when full.
type trace struct {
	cap    int
	stride int
	seen   int
	pts    []TracePoint
}

func newTrace(capacity int) *trace {
	if capacity < 8 {
		capacity = 8
	}
	return &trace{cap: capacity, stride: 1}
}

func (tr *trace) add(t, cum float64) {
	tr.seen++
	if (tr.seen-1)%tr.stride != 0 {
		return
	}
	tr.pts = append(tr.pts, TracePoint{T: dur(t), Cum: units.Bytes(cum)})
	if len(tr.pts) >= tr.cap {
		half := make([]TracePoint, 0, tr.cap/2+1)
		for i := 0; i < len(tr.pts); i += 2 {
			half = append(half, tr.pts[i])
		}
		tr.pts = half
		tr.stride *= 2
	}
}

func (tr *trace) points() []TracePoint { return append([]TracePoint(nil), tr.pts...) }
