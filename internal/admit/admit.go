// Package admit implements online multi-tenant flow admission control over
// a shared heterogeneous platform, the service-oriented extension of the
// paper's offline pipeline analysis.
//
// A platform is a set of named nodes (internal/core measurements: sustained
// rate, latency, job sizes). Tenants submit flows: an arrival envelope, an
// ordered path of platform nodes, and an SLO (maximum delay, maximum
// backlog, minimum guaranteed throughput). The controller keeps a live
// registry of admitted flows and, for each candidate, decides whether the
// platform can still meet every admitted flow's SLO:
//
//   - each admitted flow reserves a leaky-bucket contribution at every node
//     of its path (its standalone propagated arrival bound, referred to the
//     node's local units — a deterministic function of the flow and the
//     platform, so bookkeeping is independent of admission order);
//   - a node's residual service curve is its rate-latency curve minus the
//     aggregate cross traffic of the flows it hosts — blind multiplexing
//     ([beta - cross]⁺) by default, or a tighter member of the FIFO
//     left-over family when the flow's analysis rung asks for one (see
//     core.Rung: the controller carries a default, each flow may override);
//   - a candidate is checked by running core.Bound — the chain pass of the
//     analysis, which computes the end-to-end bounds a verdict reads and none
//     of the per-node report — on its path with the co-resident contributions
//     as cross traffic, and every co-resident flow sharing a node is
//     re-checked with the candidate's contributions added. Only if all SLOs
//     hold is the candidate committed. A co-resident class that the blind
//     chain bound (core.ChainBound, scalars, never better than core.Bound at
//     any rung) already shows to be clear of its SLO skips that re-check. A
//     tight-rung class keeps the θ-vector of the check that admitted its
//     newest members, and its victim checks, Recheck and revalidation first
//     evaluate that vector (core.BoundAt, sound under any cross traffic, the
//     same scalars) before they re-run the search (classBound). Reservations
//     are core.Reservations of the flow on the pristine platform, scalars too.
//
// # Scaling: flow classes
//
// The registry groups admitted flows into *classes*: flows with identical
// arrival envelopes (by structural curve digest), paths, and SLOs. Every
// member of a class has the same per-node reservation, the same analysis,
// and the same admissibility — so victim re-checks run once per class, not
// once per flow, and a node's aggregate cross traffic is the sorted-order
// sum over classes of (per-member bucket × member count). With a bounded
// number of tenant templates (the realistic shape: plans, tiers, device
// models) a registry holding millions of flows does per-admission work
// proportional to the number of *classes*, and per-flow state shrinks to
// two map entries. A candidate set (transact.go) is rostered by class too:
// one reservation, one analysis and one verdict template per class, however
// many members it adds.
//
// # Concurrency: one writer
//
// Whoever holds the writer role (Controller.leaderSem) is the only goroutine
// that may mutate the registry, so commit order is a legal serial history.
// Concurrent Admit/Release callers coalesce through a group-commit combiner
// (group.go): one caller at a time takes the role as the leader, drains the
// queue, commits pending releases first, and hands the queued admissions to
// the transaction as one set — a single sweep amortized over every waiting
// caller, which is what turns k concurrent clients into ~k× admission
// throughput even on one core. A set that is refused as a whole is decided
// one ticket at a time. AdmitBatch (batch.go) takes the role itself, for all
// of its transactions, and bisects for the largest prefix that fits.
//
// Every admission — a single Admit, a combiner group, an AdmitBatch — is the
// same transaction (transact.go): decideSet analyses the candidate set at the
// hypothetical final state under the registry *read* lock, so Recheck, Flows
// and revalidation overlap it, and a set that fits commits under the write
// lock. Nothing can go stale in between — only the role holder writes — so
// only analysed states ever commit, with no assumption that the bounds are
// monotone in cross traffic (the blind rung's are; the θ choices of the fifo
// and tight rungs carry no such guarantee).
// (PRs 6–20 ran an optimistic validate/retry/fallback protocol here against
// AdmitBatch calls racing the leader; the role made it unreachable.) Both
// locks are released by defer, so a panic inside an analysis cannot wedge the
// controller. The platform epoch steps once per committed transaction or
// release.
//
// Every Admit that passes precheck is decided, refusals too: every bound a
// decision reads is a chain bound in scalars, so deciding a refusal again
// costs microseconds, and nothing replays an earlier one. A new class's
// reservation is core.Reservations, scalars too, so the controller holds no
// cache: the class key's envelope digest is the only curve a decision builds.
package admit

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/units"
)

// SLO is the service-level objective a tenant requests for a flow. Zero
// fields are unconstrained.
type SLO struct {
	// MaxDelay bounds the end-to-end virtual delay (horizontal deviation).
	MaxDelay time.Duration
	// MaxBacklog bounds the end-to-end data occupancy (vertical deviation).
	MaxBacklog units.Bytes
	// MinThroughput is the guaranteed sustained throughput the flow needs
	// (checked against the analysis' lower throughput bound).
	MinThroughput units.Rate
}

// Flow is a tenant flow offered for admission.
type Flow struct {
	// ID identifies the flow; must be unique among admitted flows.
	ID string
	// Arrival is the flow's offered envelope in the units of the first
	// path node's input.
	Arrival core.Arrival
	// Path lists platform node names the flow traverses, in order.
	Path []string
	// SLO is what the tenant asks the platform to guarantee.
	SLO SLO
	// Rung selects the multi-flow analysis tightness for this flow
	// (core.RungBlind/RungFIFO/RungTight); core.RungDefault defers to the
	// controller's default (SetRung). Tighter rungs cost more analysis per
	// decision but admit strictly more load at identical SLOs.
	Rung core.Rung
}

// Verdict is the outcome of an admission check, with the explanation the
// API returns to tenants.
type Verdict struct {
	FlowID   string
	Admitted bool
	// Reason is a human-readable explanation of the decision.
	Reason string
	// Binding names the binding constraint: "max_delay", "max_backlog",
	// "min_throughput", "saturation", "victim:<id>", or "" when admitted
	// with headroom.
	Binding string

	// Promised bounds for the admitted flow (valid when Admitted).
	Delay      time.Duration
	Backlog    units.Bytes
	Throughput units.Rate
	// Bottleneck is the path node with the least input-referred residual
	// rate.
	Bottleneck string
	// HeadroomRate is the remaining service rate at the bottleneck node
	// (local units) after this flow's reservation.
	HeadroomRate units.Rate

	// Rung is the analysis tightness rung the decision ran at ("blind",
	// "fifo" or "tight") — the flow's own override, or the controller
	// default when unset.
	Rung string

	// Epoch is the platform epoch the verdict was computed at.
	Epoch uint64
}

// classKey is a flow-class identity, independent of the flow ID: the
// structural digest of the arrival envelope (curve.Curve.Digest), the
// arrival packetizer size, the path, the SLO, and the resolved analysis
// rung (two flows analyzed at different tightness are different admission
// questions with different reservations and verdicts). Two specs with
// identical curves map to the same key, and so to the same class.
type classKey struct {
	alpha uint64 // arrival envelope digest
	lmax  units.Bytes
	path  string // node names joined with NUL
	slo   SLO
	rung  core.Rung // resolved, never RungDefault
}

// keyLess is a total order over class keys, fixing the summation order of
// aggregates and the victim-check iteration order so both are deterministic
// functions of the admitted population (independent of arrival order).
func keyLess(a, b classKey) bool {
	if a.alpha != b.alpha {
		return a.alpha < b.alpha
	}
	if a.lmax != b.lmax {
		return a.lmax < b.lmax
	}
	if a.path != b.path {
		return a.path < b.path
	}
	if a.slo.MaxDelay != b.slo.MaxDelay {
		return a.slo.MaxDelay < b.slo.MaxDelay
	}
	if a.slo.MaxBacklog != b.slo.MaxBacklog {
		return a.slo.MaxBacklog < b.slo.MaxBacklog
	}
	if a.slo.MinThroughput != b.slo.MinThroughput {
		return a.slo.MinThroughput < b.slo.MinThroughput
	}
	return a.rung < b.rung
}

// insertKey adds k to keys, which is sorted by keyLess and does not hold k.
func insertKey(keys []classKey, k classKey) []classKey {
	i := sort.Search(len(keys), func(i int) bool { return !keyLess(keys[i], k) })
	keys = append(keys, classKey{})
	copy(keys[i+1:], keys[i:])
	keys[i] = k
	return keys
}

// removeKey drops k from keys, which is sorted by keyLess.
func removeKey(keys []classKey, k classKey) []classKey {
	i := sort.Search(len(keys), func(i int) bool { return !keyLess(keys[i], k) })
	if i < len(keys) && keys[i] == k {
		keys = append(keys[:i], keys[i+1:]...)
	}
	return keys
}

// shard holds the per-node slice of controller state. It mutates only under
// the registry write lock and is read under the registry lock in either mode.
type shard struct {
	node   core.Node
	cross  nodeCross // the hosted classes' reservations, summed (cross.go)
	nflows int       // total members hosted (sum of term counts)
}

// insert adds m members of class k reserving bucket b each. Callers must
// hold the registry write lock.
func (s *shard) insert(k classKey, b core.Bucket, m int) {
	i, ok := s.cross.find(k)
	if ok {
		s.cross.terms[i].n += m
	} else {
		s.cross.terms = append(s.cross.terms, crossTerm{})
		copy(s.cross.terms[i+1:], s.cross.terms[i:])
		s.cross.terms[i] = crossTerm{key: k, b: b, n: m}
	}
	s.cross.resum(i)
	s.nflows += m
}

// remove drops m members of class k. Callers must hold the registry write
// lock.
func (s *shard) remove(k classKey, m int) {
	i, ok := s.cross.find(k)
	if !ok {
		return
	}
	s.cross.terms[i].n -= m
	s.nflows -= m
	if s.cross.terms[i].n <= 0 {
		s.cross.terms = append(s.cross.terms[:i], s.cross.terms[i+1:]...)
	}
	s.cross.resum(i)
}

// classState is one admitted flow class: the shared spec, reservation, the
// latest admission verdict (ID-independent), and the member IDs.
type classState struct {
	key     classKey
	arrival core.Arrival
	path    []string
	slo     SLO
	contrib map[string]core.Bucket // node name -> per-member bucket (local units)
	verdict Verdict                // latest admission verdict, FlowID blank
	ids     map[string]struct{}    // member flow IDs

	// theta is the θ-vector (indexed by path node) of the check that admitted
	// the class's newest members, kept at the tight rung only: nil otherwise.
	// classBound evaluates it before it re-runs the search.
	theta []float64

	// minID caches the lexicographically smallest member for victim-naming;
	// recomputed lazily, by decideSet under the writer role, after the
	// minimum is released.
	minID    string
	minValid bool
}

// flowFor reconstructs the admit.Flow of member id. The rung is the
// resolved one the class was admitted at, pinned explicitly so later
// SetRung calls never silently re-ladder admitted classes.
func (cs *classState) flowFor(id string) Flow {
	return Flow{ID: id, Arrival: cs.arrival, Path: cs.path, SLO: cs.slo, Rung: cs.key.rung}
}

func (cs *classState) addID(id string) {
	cs.ids[id] = struct{}{}
	if !cs.minValid || id < cs.minID {
		// A smaller id keeps the cache exact; when invalid it stays invalid
		// unless this is the only member.
		if cs.minValid || len(cs.ids) == 1 {
			cs.minID, cs.minValid = id, true
		} else if id < cs.minID {
			cs.minID = id
		}
	}
}

func (cs *classState) removeID(id string) {
	delete(cs.ids, id)
	if cs.minValid && id == cs.minID {
		cs.minValid = false
	}
}

// representative returns the smallest member ID (for victim-naming in
// rejection reasons), rescanning only when the cached minimum was released.
// The caller must hold the writer role.
func (cs *classState) representative() string {
	if !cs.minValid {
		first := true
		for id := range cs.ids {
			if first || id < cs.minID {
				cs.minID = id
				first = false
			}
		}
		cs.minValid = len(cs.ids) > 0
	}
	return cs.minID
}

// Controller is a concurrent-safe admission controller over one platform.
type Controller struct {
	name   string
	shards map[string]*shard
	order  []string // node names in platform order, for stable reports

	// rung is the default analysis tightness for flows that do not carry
	// their own (SetRung; zero value resolves to blind). Set before serving
	// traffic, immutable afterwards.
	rung core.Rung

	mu      sync.RWMutex // guards flows/classes and commit/release transactions
	flows   map[string]*classState
	classes map[classKey]*classState
	// classKeys holds the keys of classes sorted by keyLess: the
	// deterministic victim-check iteration order.
	classKeys []classKey

	// epoch is the global commit counter: one step per committed admission
	// transaction (a single Admit, a group, a batch) or release. A verdict
	// describes the registry at the epoch it carries.
	epoch atomic.Uint64

	// leaderSem is the writer role (group.go): its holder — the combiner
	// leader or an AdmitBatch call — is the only goroutine that may take
	// mu.Lock. Concurrent Admit/Release callers enqueue tickets; the leader
	// drains the queue and decides the whole group in a single read-locked
	// sweep with one write section.
	qmu       sync.Mutex
	queue     []*ticket
	leaderSem chan struct{}

	// Telemetry sinks (nil when detached): metric handles from EnableObs,
	// the structured audit logger from SetAudit (obs.go), and the decision
	// flight recorder from EnableFlightRecorder (trace.go).
	obsm  *ctrlObs
	audit *slog.Logger
	rec   *FlightRecorder
}

// New builds a controller for a platform of uniquely named nodes. Node
// parameters are validated with the core model's rules; nodes may carry
// static CrossRate/CrossBurst for non-tenant background traffic.
func New(name string, nodes []core.Node) (*Controller, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("admit: platform %q has no nodes", name)
	}
	c := &Controller{
		name:      name,
		shards:    make(map[string]*shard, len(nodes)),
		flows:     make(map[string]*classState),
		classes:   make(map[classKey]*classState),
		leaderSem: make(chan struct{}, 1),
	}
	for i, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("admit: node %d has no name", i)
		}
		if _, dup := c.shards[n.Name]; dup {
			return nil, fmt.Errorf("admit: duplicate node name %q", n.Name)
		}
		probe := core.Pipeline{
			Arrival: core.Arrival{Rate: 1},
			Nodes:   []core.Node{n},
		}
		if err := probe.Validate(); err != nil {
			return nil, fmt.Errorf("admit: %w", err)
		}
		c.shards[n.Name] = &shard{node: n}
		c.order = append(c.order, n.Name)
	}
	return c, nil
}

// Name returns the platform name.
func (c *Controller) Name() string { return c.name }

// SetRung sets the controller's default analysis tightness rung, applied to
// every flow whose own Rung is core.RungDefault. Call before serving
// traffic: the field is read without synchronization on the decision path,
// and admitted classes keep the rung they were admitted at regardless.
func (c *Controller) SetRung(r core.Rung) { c.rung = r }

// DefaultRung returns the controller's resolved default rung.
func (c *Controller) DefaultRung() core.Rung { return c.rung.Resolved() }

// rungFor resolves the analysis rung for f: the flow's own override when
// set, the controller default otherwise. Never returns RungDefault.
func (c *Controller) rungFor(f Flow) core.Rung {
	if f.Rung != core.RungDefault {
		return f.Rung.Resolved()
	}
	return c.rung.Resolved()
}

// Epoch returns the current platform epoch; it increments on every
// successful admit or release (once per batch transaction). It is the change
// detector for snapshots and replays.
func (c *Controller) Epoch() uint64 { return c.epoch.Load() }

// NodeNames returns the platform node names in declaration order.
func (c *Controller) NodeNames() []string { return append([]string(nil), c.order...) }

// FlowCount returns the number of admitted flows in O(1) — unlike
// len(Flows()), which materializes a sorted snapshot.
func (c *Controller) FlowCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.flows)
}

// ClassCount returns the number of distinct flow classes (flows sharing
// arrival curves, path, and SLO) currently admitted. Per-admission work
// scales with this figure, not with FlowCount.
func (c *Controller) ClassCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.classes)
}

// --- Admission -------------------------------------------------------------

// Admit decides whether f can join the platform without breaking any SLO,
// committing the reservation when it can. The verdict always explains the
// decision; rejected flows leave the platform untouched. With telemetry
// attached (EnableObs/SetAudit) every decision is counted, its latency
// recorded, and an audit line emitted.
func (c *Controller) Admit(f Flow) Verdict {
	tr := c.newTrace(KindAdmit)
	v := c.admit(f, tr)
	if tr != nil {
		c.observeAdmit(v, tr)
	}
	return v
}

func (c *Controller) admit(f Flow, tr *decTrace) Verdict {
	v, key, bad := c.precheck(f, c.epoch.Load())
	tr.mark(PhasePrecheck)
	if bad {
		return v
	}
	// Hand the decision to the group-commit combiner (group.go): an
	// uncontended caller becomes the leader and runs the transaction at
	// once; under concurrency, queued admissions go in as one set, so one
	// victim sweep serves the whole group.
	return c.submit(&ticket{kind: tkAdmit, f: f, key: key, tr: tr}).v
}

// commit registers flow f (already decided admissible by plan pl) under
// class key; the caller steps the epoch once per transaction. Callers must
// hold the registry write lock.
func (c *Controller) commit(key classKey, f Flow, pl *classPlan) {
	cs, ok := c.classes[key]
	if !ok {
		cs = &classState{
			key:     key,
			arrival: f.Arrival,
			path:    append([]string(nil), f.Path...),
			slo:     f.SLO,
			contrib: pl.contrib,
			ids:     make(map[string]struct{}),
		}
		c.classes[key] = cs
		c.classKeys = insertKey(c.classKeys, key)
	}
	cs.addID(f.ID)
	tv := pl.verdict
	tv.FlowID = "" // the stored template is ID-independent
	cs.verdict = tv
	cs.theta = pl.theta
	c.flows[f.ID] = cs
	for name, b := range pl.contrib {
		c.shards[name].insert(key, b, 1)
	}
}

// precheck runs the ID and spec checks and builds f's class key. bad is true
// when v is a rejection to return as-is.
func (c *Controller) precheck(f Flow, epoch uint64) (v Verdict, key classKey, bad bool) {
	v = Verdict{FlowID: f.ID, Epoch: epoch, Admitted: false}
	reject := func(binding, format string, args ...any) (Verdict, classKey, bool) {
		v.Binding = binding
		v.Reason = "rejected: " + fmt.Sprintf(format, args...)
		return v, classKey{}, true
	}
	if f.ID == "" {
		return reject("spec", "flow has no ID")
	}
	if len(f.Path) == 0 {
		return reject("spec", "flow %q has an empty path", f.ID)
	}
	for _, name := range f.Path {
		if _, ok := c.shards[name]; !ok {
			return reject("spec", "unknown platform node %q", name)
		}
	}
	if err := f.Arrival.Validate(); err != nil {
		return reject("spec", "%v", err)
	}
	c.mu.RLock()
	_, dup := c.flows[f.ID]
	c.mu.RUnlock()
	if dup {
		return reject("spec", "flow %q is already admitted", f.ID)
	}
	key, err := c.keyFor(f)
	if err != nil {
		return reject("spec", "%v", err)
	}
	return v, key, false
}

// keyFor builds f's class key: the registry groups admitted flows under it,
// and a candidate set is rostered, reserved for and analysed once per key.
// The arrival must be valid. Its envelope digest is the one curve a decision
// builds, and the curve engine panics on some valid arrivals whose knees fall
// below its time resolution (ROADMAP, "A scale-free time axis"). keyFor is
// the one place that recovers that panic: it becomes err, which precheck
// refuses as a spec error before the flow reaches the combiner.
func (c *Controller) keyFor(f Flow) (key classKey, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("the arrival's envelope cannot be represented on the curve engine's time axis: %v", r)
		}
	}()
	return classKey{
		alpha: f.Arrival.Envelope().Digest(),
		lmax:  f.Arrival.MaxPacket,
		path:  strings.Join(f.Path, "\x00"),
		slo:   f.SLO,
		rung:  c.rungFor(f),
	}, nil
}

// orAny renders an SLO field, or "(any)" when unconstrained.
func orAny(constrained bool, v any) string {
	if !constrained {
		return "(any)"
	}
	return fmt.Sprint(v)
}

// sloCheck describes a violated SLO dimension.
type sloCheck struct {
	binding string
	detail  string
}

// sloViolation checks the bounds promised on pipeline p against an SLO,
// returning the first violated dimension (delay, then backlog, then
// throughput) or nil.
func sloViolation(s SLO, p core.Pipeline, b *core.Bounds) *sloCheck {
	if b.Overloaded {
		return &sloCheck{"saturation", fmt.Sprintf(
			"arrival rate exceeds the residual service rate at node %d (steady-state bounds are infinite)",
			b.BottleneckIndex)}
	}
	bottleneck := p.Nodes[b.BottleneckIndex].Name
	if s.MaxDelay > 0 && b.Delay > s.MaxDelay {
		return &sloCheck{"max_delay", fmt.Sprintf(
			"delay bound %v exceeds max_delay %v (bottleneck %s)",
			b.Delay, s.MaxDelay, bottleneck)}
	}
	if s.MaxBacklog > 0 && b.Backlog > s.MaxBacklog {
		return &sloCheck{"max_backlog", fmt.Sprintf(
			"backlog bound %v exceeds max_backlog %v (bottleneck %s)",
			b.Backlog, s.MaxBacklog, bottleneck)}
	}
	if s.MinThroughput > 0 && b.Throughput < s.MinThroughput {
		return &sloCheck{"min_throughput", fmt.Sprintf(
			"guaranteed throughput %v below min_throughput %v (bottleneck %s)",
			b.Throughput, s.MinThroughput, bottleneck)}
	}
	return nil
}

// sortedFlowIDs returns every admitted flow ID in sorted order. O(n log n):
// reserved for snapshot queries (Flows, RevalidateAll), never the admission
// hot path. Callers must hold the registry lock.
func (c *Controller) sortedFlowIDs() []string {
	ids := make([]string, 0, len(c.flows))
	for id := range c.flows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// --- Release ---------------------------------------------------------------

// Release removes an admitted flow, freeing its reservations. It reports
// whether the flow was present.
func (c *Controller) Release(id string) bool {
	tr := c.newTrace(KindRelease)
	ok := c.release(id, tr)
	if tr != nil {
		c.observeRelease(id, ok, tr)
	}
	return ok
}

func (c *Controller) release(id string, tr *decTrace) bool {
	// Releases ride the same combiner as admissions: while a leader is
	// mid-sweep, pending releases queue instead of mutating node state
	// underneath the analysis, and each drain cycle commits them first so
	// admissions are decided against the freshest state.
	tr.mark(PhasePrecheck)
	return c.submit(&ticket{kind: tkRelease, id: id, tr: tr}).ok
}

// releaseLocked removes an admitted flow, freeing its reservations, and steps
// the epoch. Callers must hold the registry write lock.
func (c *Controller) releaseLocked(id string) bool {
	cs, ok := c.flows[id]
	if !ok {
		return false
	}
	for name := range cs.contrib {
		c.shards[name].remove(cs.key, 1)
	}
	cs.removeID(id)
	if len(cs.ids) == 0 {
		delete(c.classes, cs.key)
		c.classKeys = removeKey(c.classKeys, cs.key)
	}
	delete(c.flows, id)
	c.epoch.Add(1)
	return true
}

// --- Queries ---------------------------------------------------------------

// AdmittedFlow is a registry snapshot entry: the flow and the bounds the
// controller promised at admission.
type AdmittedFlow struct {
	Flow Flow
	// Verdict is the latest admission verdict of the flow's class (flows
	// with identical curves, path, and SLO share promised bounds).
	Verdict Verdict
}

// Flows returns a snapshot of admitted flows sorted by ID. O(n log n) — use
// FlowCount for the cheap cardinality query.
func (c *Controller) Flows() []AdmittedFlow {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]AdmittedFlow, 0, len(c.flows))
	for _, id := range c.sortedFlowIDs() {
		cs := c.flows[id]
		v := cs.verdict
		v.FlowID = id
		out = append(out, AdmittedFlow{Flow: cs.flowFor(id), Verdict: v})
	}
	return out
}

// Recheck recomputes one admitted flow's analytic bounds under the current
// co-resident reservations (excluding its own) and re-asserts its SLO — the
// cheap, simulation-free sibling of RevalidateAll, suitable for sustained
// churn. The verdict's Admitted field reports whether the SLO still holds.
func (c *Controller) Recheck(id string) (Verdict, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cs, ok := c.flows[id]
	if !ok {
		return Verdict{}, fmt.Errorf("admit: recheck: flow %q not admitted", id)
	}
	f := cs.flowFor(id)
	v := Verdict{FlowID: id, Epoch: c.epoch.Load(), Rung: f.Rung.String()}
	p, b, err := c.boundLocked(f)
	if err != nil {
		v.Binding, v.Reason = "saturation", fmt.Sprintf("recheck: %v", err)
		return v, nil
	}
	v.Delay, v.Backlog, v.Throughput = b.Delay, b.Backlog, b.Throughput
	if bad := sloViolation(f.SLO, p, b); bad != nil {
		v.Binding = bad.binding
		v.Reason = "recheck violated: " + bad.detail
		return v, nil
	}
	v.Admitted = true
	v.Reason = "recheck ok"
	return v, nil
}

// boundLocked builds f's pipeline under the current reservations, leaving
// out f's own when f is admitted, and bounds it with classBound, as a bound
// to report. The registry lock must be held in either mode.
func (c *Controller) boundLocked(f Flow) (core.Pipeline, *core.Bounds, error) {
	cs := c.flows[f.ID] // nil when f is not admitted
	var self classKey
	if cs != nil {
		self = cs.key
	}
	p := c.sharedPipeline(f.Arrival, f.Path, c.rungFor(f), self, &decision{})
	b, _, err := c.classBound(cs, p, true)
	return p, b, err
}

// classBound bounds one member of admitted class cs (nil: a flow of no
// class) on p, the pipeline sharedPipeline built for it. Without a stored
// θ-vector it is core.Bound. With one (a tight class) it first evaluates
// core.BoundAt at that vector — sound under any cross traffic, one chain
// bound in scalars, no search and no curve. A victim check (report false) stops there when that bound
// meets the class's SLO, and certified says so. Otherwise the fresh search
// runs too, and classBound returns whichever of the two Bounds meets the SLO —
// the smaller delay when both do, the fresh one when neither does — so a
// replay is built from the vector its bound was taken at.
func (c *Controller) classBound(cs *classState, p core.Pipeline, report bool) (b *core.Bounds, certified bool, err error) {
	if cs == nil || cs.theta == nil {
		b, err = core.Bound(p)
		return b, false, err
	}
	at, atErr := core.BoundAt(p, cs.theta)
	atOK := atErr == nil && sloViolation(cs.slo, p, at) == nil
	if atOK && !report {
		return at, true, nil
	}
	b, err = core.Bound(p)
	if atOK && (err != nil || sloViolation(cs.slo, p, b) != nil || at.Delay < b.Delay) {
		return at, true, nil
	}
	return b, false, err
}

// Residual describes a node's leftover service after all admitted
// reservations.
type Residual struct {
	Node core.Node
	// Flows hosted on the node, sorted by ID.
	Flows []string
	// Cross is the aggregate reserved cross traffic (plus the node's
	// static background), local units.
	Cross core.Bucket
	// Curve is the residual service curve [beta - cross]⁺; Starved reports
	// that reservations consume the full service rate (Curve is zero).
	Curve   curve.Curve
	Starved bool
	// Rate is the residual sustained rate (ultimate slope of Curve).
	Rate units.Rate
}

// ResidualService returns the residual service of one platform node: the
// aggregate and the hosted-flow listing (a walk over the classes, O(hosted
// flows)) of one registry state, read in one read-locked section.
func (c *Controller) ResidualService(node string) (Residual, error) {
	sh, ok := c.shards[node]
	if !ok {
		return Residual{}, fmt.Errorf("admit: unknown platform node %q", node)
	}
	r := Residual{Node: sh.node}

	c.mu.RLock()
	for _, cs := range c.classes {
		if _, hosted := cs.contrib[node]; !hosted {
			continue
		}
		for id := range cs.ids {
			r.Flows = append(r.Flows, id)
		}
	}
	agg := sh.cross.total
	c.mu.RUnlock()
	sort.Strings(r.Flows)

	r.Cross = core.Bucket{
		Rate:  agg.Rate + sh.node.CrossRate,
		Burst: agg.Burst + sh.node.CrossBurst,
	}
	beta := curve.RateLatency(float64(sh.node.Rate), sh.node.Latency.Seconds())
	if r.Cross.Rate <= 0 {
		r.Curve = beta
		r.Rate = sh.node.Rate
		return r, nil
	}
	resid, ok := curve.ResidualService(beta, curve.Affine(float64(r.Cross.Rate), float64(r.Cross.Burst)))
	if !ok {
		r.Starved = true
		r.Curve = curve.Zero()
		return r, nil
	}
	r.Curve = resid
	r.Rate = units.Rate(resid.UltimateSlope())
	return r, nil
}
