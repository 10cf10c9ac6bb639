package obs

import "time"

// Span is a lightweight phase-breakdown recorder for one logical operation
// (an admission decision, a batch transaction). It carries no locks and no
// goroutine identity: exactly one goroutine may write to a span at a time,
// with ownership handed off through a synchronizing operation (a channel
// send, a mutex) — the discipline the group-commit combiner already follows
// for its tickets.
//
// Phases are recorded contiguously: Mark(name) attributes everything since
// the previous mark (or the span start) to name, so the phase durations of
// a fully marked span sum to its Total by construction. Repeated marks of
// the same name accumulate. All methods are nil-receiver safe, so detached
// code paths pass nil spans and pay one branch.
type Span struct {
	start time.Time
	last  time.Time
	names []string
	durs  []time.Duration
}

// StartSpan begins a span at the current time.
func StartSpan() *Span {
	now := time.Now()
	return &Span{start: now, last: now}
}

// Mark attributes the time elapsed since the previous mark (or the span
// start) to phase and advances the cursor.
func (s *Span) Mark(phase string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.add(phase, now.Sub(s.last))
	s.last = now
}

// Add accumulates d under phase without moving the cursor — for folding in
// externally measured durations.
func (s *Span) Add(phase string, d time.Duration) {
	if s == nil {
		return
	}
	s.add(phase, d)
}

func (s *Span) add(phase string, d time.Duration) {
	for i, n := range s.names {
		if n == phase {
			s.durs[i] += d
			return
		}
	}
	s.names = append(s.names, phase)
	s.durs = append(s.durs, d)
}

// Absorb folds every phase of other into s and advances s's cursor to
// other's cursor when that is later — used when a leader records shared
// work on one span and credits it to every ticket it decided, without the
// followers double-counting that window at their next Mark. The window from
// s's cursor to other's start, which neither span marked, goes to phase gap,
// so s's phases still tile its span up to the new cursor.
func (s *Span) Absorb(other *Span, gap string) {
	if s == nil || other == nil {
		return
	}
	if d := other.start.Sub(s.last); d > 0 {
		s.add(gap, d)
	}
	for i, n := range other.names {
		s.add(n, other.durs[i])
	}
	if other.last.After(s.last) {
		s.last = other.last
	}
}

// Start returns the span's start time (zero for nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Total returns the time from the span's start to its last mark: what the
// marked phases tile. It reads no clock, so a finished span's Total does not
// grow by whatever delays its reader after the final Mark.
func (s *Span) Total() time.Duration {
	if s == nil {
		return 0
	}
	return s.last.Sub(s.start)
}

// PhaseDur is one named phase duration of a finished span.
type PhaseDur struct {
	Phase string        `json:"phase"`
	Dur   time.Duration `json:"dur_ns"`
}

// Phases returns the recorded phases in first-marked order.
func (s *Span) Phases() []PhaseDur {
	if s == nil {
		return nil
	}
	out := make([]PhaseDur, len(s.names))
	for i, n := range s.names {
		out[i] = PhaseDur{Phase: n, Dur: s.durs[i]}
	}
	return out
}
