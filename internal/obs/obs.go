// Package obs is a dependency-free telemetry layer: atomic counters, gauges
// and fixed-bucket histograms behind a Registry that renders both Prometheus
// text exposition and JSON, plus a Chrome trace_event exporter (trace.go)
// for discrete-event simulation timelines.
//
// Design goals, in order:
//
//  1. Near-zero cost on instrumented hot paths: every metric write is one or
//     two atomic operations, no locks, no allocations.
//  2. No dependencies beyond the standard library (the repo rule), so every
//     internal package may import obs without cycles.
//  3. Pull-model friendliness: collectors registered with AddCollector run
//     at scrape time, so expensive snapshots (cache stats, residual-service
//     sweeps, bound-tightness replays) are paid only when someone looks.
//
// Metric naming follows the Prometheus conventions: snake_case, a unit
// suffix (_seconds, _bytes, _total for counters), and an "nc_" prefix for
// everything this repository exports.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// --- Metric primitives ------------------------------------------------------

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with Prometheus "le" semantics: an
// observation v lands in the first bucket whose upper bound satisfies
// v <= bound; values above every bound land in the implicit +Inf bucket.
// NaN observations count toward +Inf (they exceed every finite bound).
// All methods are safe for concurrent use.
type Histogram struct {
	bounds []float64       // sorted, strictly increasing upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    Gauge                      // atomic float accumulation
	ex     []atomic.Pointer[Exemplar] // len(bounds)+1; latest exemplar per bucket
}

// Exemplar links one histogram bucket back to the concrete event that most
// recently landed there — typically a decision sequence number resolvable
// against the flight recorder. Stored per bucket, last-writer-wins.
type Exemplar struct {
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	// Ts is seconds since the Unix epoch at observation time.
	Ts float64 `json:"ts,omitempty"`
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bound
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveEx records one observation and attaches e as the bucket's exemplar
// (replacing any previous one). e must not be mutated after the call.
func (h *Histogram) ObserveEx(v float64, e *Exemplar) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if e != nil {
		h.ex[i].Store(e)
	}
}

// BucketExemplar returns the latest exemplar of bucket i (nil if none),
// where i == len(Bounds()) addresses the +Inf bucket.
func (h *Histogram) BucketExemplar(i int) *Exemplar { return h.ex[i].Load() }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Bounds returns a copy of the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCount returns the non-cumulative count of bucket i, where
// i == len(Bounds()) addresses the +Inf bucket.
func (h *Histogram) BucketCount(i int) uint64 { return h.counts[i].Load() }

// ExponentialBuckets returns n upper bounds start, start*factor, ... —
// the usual latency-histogram layout. It panics for start <= 0, factor <= 1
// or n < 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// --- Registry ---------------------------------------------------------------

// metricKind discriminates families.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name/value dimension of a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// series is one labelled instance within a family.
type series struct {
	labels []Label // sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // pull-style reading; wins over c/g when set
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only
	series map[string]*series
	keys   []string // sorted series keys for stable rendering
}

// Registry is a set of metric families plus scrape-time collectors. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	order      []string // registration order
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// AddCollector registers fn to run at the start of every render (scrape).
// Collectors typically snapshot an external subsystem into plain gauges;
// they may create metrics on the registry they receive.
func (r *Registry) AddCollector(fn func(*Registry)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// validName reports a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortLabels returns a sorted copy, panicking on duplicate or invalid keys.
func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q", l.Key))
		}
		if i > 0 && ls[i-1].Key == l.Key {
			panic(fmt.Sprintf("obs: duplicate label key %q", l.Key))
		}
	}
	return ls
}

// seriesKey renders sorted labels into a map key / Prometheus label block
// (empty string for no labels).
func seriesKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the family and series, enforcing kind consistency.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := sortLabels(labels)
	key := seriesKey(ls)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: ls}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{
				bounds: append([]float64(nil), f.bounds...),
				counts: make([]atomic.Uint64, len(f.bounds)+1),
				ex:     make([]atomic.Pointer[Exemplar], len(f.bounds)+1),
			}
		}
		f.series[key] = s
		i := sort.SearchStrings(f.keys, key)
		f.keys = append(f.keys, "")
		copy(f.keys[i+1:], f.keys[i:])
		f.keys[i] = key
	}
	return s
}

// Counter returns the counter series for name+labels, creating it on first
// use. Repeated calls with the same name and labels return the same Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge series for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// GaugeFunc registers a pull-style gauge: fn is evaluated at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGauge, nil, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// CounterFunc registers a pull-style counter: fn is evaluated at render
// time and must be monotonically non-decreasing. Use it to export counters
// whose source of truth lives elsewhere (cache hit tallies, controller
// stats) under proper counter typing instead of mirroring them as gauges.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindCounter, nil, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram series for name+labels, creating it on
// first use with the given bucket upper bounds (sorted ascending; +Inf is
// implicit). Bounds must be non-empty and strictly increasing; families are
// created with the bounds of the first call and later calls reuse them.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: Histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: Histogram bounds must be strictly increasing")
		}
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).h
}

// ResetFamily drops every series of the named family (the family itself and
// its help/type stay registered). Collectors that publish per-entity gauges
// (for example per-flow bound tightness) reset before republishing so
// released entities don't linger.
func (r *Registry) ResetFamily(name string) {
	r.mu.Lock()
	if f := r.families[name]; f != nil {
		f.series = make(map[string]*series)
		f.keys = nil
	}
	r.mu.Unlock()
}

// runCollectors executes registered collectors outside the registry lock
// (collectors create metrics, which locks).
func (r *Registry) runCollectors() {
	r.mu.RLock()
	fns := append([]func(*Registry){}, r.collectors...)
	r.mu.RUnlock()
	for _, fn := range fns {
		fn(r)
	}
}
