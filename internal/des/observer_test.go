package des

import (
	"testing"
)

func TestObserverHooks(t *testing.T) {
	var s Simulator
	var schedules, executes, advances int
	var lastFrom, lastTo float64
	s.SetObserver(&FuncObserver{
		Schedule: func(now, at float64, pending int) {
			schedules++
			if at < now {
				t.Errorf("OnSchedule at %g before now %g", at, now)
			}
			if pending < 1 {
				t.Errorf("OnSchedule pending = %d", pending)
			}
		},
		Execute: func(tm float64, pending int) { executes++ },
		Advance: func(from, to float64) {
			advances++
			lastFrom, lastTo = from, to
			if to <= from {
				t.Errorf("OnAdvance %g -> %g not forward", from, to)
			}
		},
	})

	s.Schedule(1, func() {})
	s.Schedule(1, func() {}) // same time: no second advance
	s.Schedule(2, func() { s.Schedule(0, func() {}) })
	if n, capped := s.RunAll(100); n != 4 || capped {
		t.Fatalf("RunAll = %d, capped %v", n, capped)
	}

	if schedules != 4 {
		t.Errorf("schedules = %d, want 4", schedules)
	}
	if executes != 4 {
		t.Errorf("executes = %d, want 4", executes)
	}
	// Clock advances: 0->1 and 1->2 only (same-time events don't advance).
	if advances != 2 || lastFrom != 1 || lastTo != 2 {
		t.Errorf("advances = %d (last %g->%g), want 2 (1->2)", advances, lastFrom, lastTo)
	}
}

func TestObserverDetach(t *testing.T) {
	var s Simulator
	fired := 0
	o := &FuncObserver{Execute: func(float64, int) { fired++ }}
	s.SetObserver(o)
	if s.Observer() != o {
		t.Error("Observer() did not return the attached observer")
	}
	s.Schedule(0, func() {})
	s.Step()
	s.SetObserver(nil)
	s.Schedule(0, func() {})
	s.Step()
	if fired != 1 {
		t.Errorf("observer fired %d times, want 1 (detached for the second event)", fired)
	}
}

// benchLoop schedules a self-rescheduling chain of n events and drains it.
func benchLoop(b *testing.B, s *Simulator, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		remaining := n
		var tick func()
		tick = func() {
			remaining--
			if remaining > 0 {
				s.Schedule(1e-6, tick)
			}
		}
		s.Schedule(0, tick)
		s.RunAll(uint64(n) + 1)
	}
}

// BenchmarkEventLoop measures the bare kernel: schedule + heap + dispatch,
// no observer attached. The observed variant quantifies the per-event cost
// of an attached observer; the delta between this and the pre-hook kernel
// is just a nil check (see bench_des.txt in CI).
func BenchmarkEventLoop(b *testing.B) {
	var s Simulator
	benchLoop(b, &s, 1000)
}

func BenchmarkEventLoopObserved(b *testing.B) {
	var s Simulator
	var events uint64
	s.SetObserver(&FuncObserver{
		Execute: func(float64, int) { events++ },
	})
	benchLoop(b, &s, 1000)
}
