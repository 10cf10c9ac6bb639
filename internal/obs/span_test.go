package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanContiguousPhases(t *testing.T) {
	s := StartSpan()
	s.Mark("a")
	s.Mark("b")
	s.Add("c", 5*time.Millisecond)
	s.Mark("d")

	ph := s.Phases()
	if len(ph) != 4 {
		t.Fatalf("phases = %+v, want 4", ph)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if ph[i].Phase != want {
			t.Errorf("phase %d = %q, want %q", i, ph[i].Phase, want)
		}
	}
	// Contiguous marking: the marked phases (a, b, d) tile [start, last
	// mark], so their sum — minus the injected c, which consumed no wall
	// clock — is the total exactly.
	var sum time.Duration
	for _, p := range ph {
		sum += p.Dur
	}
	marked := sum - 5*time.Millisecond
	total := s.Total()
	if marked != total {
		t.Errorf("marked phases %v, total %v", marked, total)
	}
	if s.Start().IsZero() {
		t.Error("zero start time")
	}
}

func TestSpanAbsorb(t *testing.T) {
	a := StartSpan()
	a.Mark("own")
	b := StartSpan()
	b.Add("shared", 2*time.Millisecond)
	b.Mark("late")

	a.Absorb(b, "wait")
	a.Mark("after")

	names := []string{}
	var sum time.Duration
	for _, p := range a.Phases() {
		names = append(names, p.Phase)
		sum += p.Dur
	}
	// The window between a's mark and b's start goes to "wait", so the
	// phases, less the injected "shared", tile a's span exactly.
	if got := sum - 2*time.Millisecond; got != a.Total() {
		t.Errorf("phases sum to %v (less the injected 2ms), total %v", got, a.Total())
	}
	want := []string{"own", "wait", "shared", "late", "after"}
	if len(names) != len(want) {
		t.Fatalf("phases = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases = %v, want %v", names, want)
		}
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	s.Mark("x")
	s.Add("y", time.Second)
	s.Absorb(StartSpan(), "gap")
	if s.Total() != 0 || len(s.Phases()) != 0 || !s.Start().IsZero() {
		t.Error("nil span must read as zero")
	}
}

func TestRingWrapAndSeq(t *testing.T) {
	r := NewRing[int](3)
	if r.Cap() != 3 || r.Len() != 0 || r.Seq() != 0 {
		t.Fatalf("fresh ring: cap %d len %d seq %d", r.Cap(), r.Len(), r.Seq())
	}
	for i := 1; i <= 5; i++ {
		if seq := r.Push(i * 10); seq != uint64(i) {
			t.Errorf("push %d: seq %d", i, seq)
		}
	}
	if r.Len() != 3 || r.Seq() != 5 {
		t.Errorf("after wrap: len %d seq %d", r.Len(), r.Seq())
	}
	got := r.Snapshot(0)
	want := []int{50, 40, 30} // newest first
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
	if lim := r.Snapshot(2); len(lim) != 2 || lim[0] != 50 {
		t.Errorf("limited snapshot = %v", lim)
	}
}

func TestRingPushSeq(t *testing.T) {
	type rec struct{ seq uint64 }
	r := NewRing[rec](2)
	r.PushSeq(func(seq uint64) rec { return rec{seq} })
	r.PushSeq(func(seq uint64) rec { return rec{seq} })
	got := r.Snapshot(0)
	if got[0].seq != 2 || got[1].seq != 1 {
		t.Errorf("embedded seqs = %+v", got)
	}
	if NewRing[int](0).Cap() != 1 {
		t.Error("capacity not clamped to 1")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing[uint64](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.PushSeq(func(seq uint64) uint64 { return seq })
				r.Snapshot(8)
			}
		}()
	}
	wg.Wait()
	if r.Seq() != 1600 {
		t.Errorf("seq %d, want 1600", r.Seq())
	}
	// Retained entries carry their own seq (PushSeq atomicity).
	for i, v := range r.Snapshot(0) {
		if v != 1600-uint64(i) {
			t.Fatalf("entry %d = %d, want %d", i, v, 1600-uint64(i))
		}
	}
}

func TestWindowSumRate(t *testing.T) {
	w := NewWindow(60)
	if w.Seconds() != 60 {
		t.Fatalf("seconds = %d", w.Seconds())
	}
	w.Add(3)
	w.Add(2)
	if got := w.Sum(); got != 5 {
		t.Errorf("sum = %d, want 5", got)
	}
	if got, want := w.Rate(), 5.0/60; got != want {
		t.Errorf("rate = %g, want %g", got, want)
	}
	if NewWindow(0).Seconds() < 1 {
		t.Error("window seconds not clamped")
	}
}
