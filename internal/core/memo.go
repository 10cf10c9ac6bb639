package core

import (
	"math"
	"sync"
)

// Memo is a bounded cache of full analyses keyed by a structural digest of
// the pipeline description (name, arrival buckets, and every node field):
// structurally identical pipelines share one Analysis. Nothing on the
// admission path reads it; it serves callers that analyse the same pipeline
// again and again.
//
// A Memo is safe for concurrent use. Cached results are returned by
// pointer; callers must treat them as read-only.
type Memo struct {
	mu      sync.Mutex
	entries map[uint64]memoEntry
}

type memoEntry struct {
	a   *Analysis
	err error
}

// memoCap bounds the number of cached analyses; on overflow roughly half
// the entries are evicted (map order, effectively random).
const memoCap = 1024

// NewMemo returns an empty analysis cache.
func NewMemo() *Memo { return &Memo{} }

// lookup serves AnalyzeMemo from p's entry, computing it with run when there
// is none. A nil Memo computes.
func (m *Memo) lookup(p Pipeline) (*Analysis, error) {
	if m == nil {
		a, _, err := run(p, nil, true)
		return a, err
	}
	key := p.digest()
	m.mu.Lock()
	e, ok := m.entries[key]
	m.mu.Unlock()
	if ok {
		return e.a, e.err
	}
	e.a, _, e.err = run(p, nil, true)

	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[uint64]memoEntry, 64)
	}
	if len(m.entries) >= memoCap {
		drop := len(m.entries) / 2
		for k := range m.entries {
			if drop == 0 {
				break
			}
			delete(m.entries, k)
			drop--
		}
	}
	m.entries[key] = e
	m.mu.Unlock()
	return e.a, e.err
}

// digest hashes every field of the pipeline description that Analyze reads.
// The Name is included because it is embedded verbatim in the Analysis (and
// in Subrange-derived names); two pipelines differing only by name must not
// share a cached result.
func (p Pipeline) digest() uint64 {
	h := newDigest()
	h.str(p.Name)
	h.f64(float64(p.Arrival.Rate))
	h.f64(float64(p.Arrival.Burst))
	h.f64(float64(p.Arrival.MaxPacket))
	h.u64(uint64(len(p.Arrival.Extra)))
	for _, b := range p.Arrival.Extra {
		h.f64(float64(b.Rate))
		h.f64(float64(b.Burst))
	}
	h.u64(uint64(len(p.Nodes)))
	for _, n := range p.Nodes {
		h.str(n.Name)
		h.u64(uint64(n.Kind))
		h.f64(float64(n.Rate))
		h.f64(float64(n.MaxRate))
		h.u64(uint64(n.Latency))
		h.f64(float64(n.JobIn))
		h.f64(float64(n.JobOut))
		h.f64(float64(n.MaxPacket))
		h.f64(n.BestGain)
		h.f64(float64(n.CrossRate))
		h.f64(float64(n.CrossBurst))
	}
	// The resolved rung, so RungDefault and an explicit RungBlind share a
	// cached analysis while the other rungs get their own entries.
	h.u64(uint64(p.Rung.Resolved()))
	return h.sum()
}

// digestState is a small splitmix-style incremental hasher (FNV-quality
// avalanche without allocations).
type digestState struct{ h uint64 }

func newDigest() *digestState { return &digestState{h: 0x9e3779b97f4a7c15} }

func (d *digestState) u64(v uint64) {
	h := d.h ^ v
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	d.h = h
}

func (d *digestState) f64(v float64) {
	if v == 0 {
		v = 0 // fold -0 into +0
	}
	d.u64(math.Float64bits(v))
}

func (d *digestState) str(s string) {
	d.u64(uint64(len(s)))
	// Fold 8 bytes at a time; the tail is zero-padded by the loop bound.
	var acc uint64
	n := 0
	for i := 0; i < len(s); i++ {
		acc = acc<<8 | uint64(s[i])
		n++
		if n == 8 {
			d.u64(acc)
			acc, n = 0, 0
		}
	}
	if n > 0 {
		d.u64(acc)
	}
}

func (d *digestState) sum() uint64 {
	h := d.h
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h
}
