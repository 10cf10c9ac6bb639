package curve

import (
	"math"
	"math/rand"
	"testing"
)

// Scratch.HDev reuses buffers, it is not a different algorithm: on any curve
// pair it must return the bitwise-identical value of the package function,
// including across reuse of the internal buffers.
func TestScratchHDevMatchesHDev(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewScratch()
	for trial := 0; trial < 300; trial++ {
		f := randCurve(rng, 5, 1)
		g := randCurve(rng, 5, 1)
		want := HDev(f, g)
		got := s.HDev(f, g)
		if math.IsInf(want, 1) {
			if !math.IsInf(got, 1) {
				t.Fatalf("trial %d: scratch %v, want +Inf", trial, got)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: scratch HDev %v != HDev %v (must be bitwise identical)", trial, got, want)
		}
	}
}

func TestFIFOThetaInsert(t *testing.T) {
	g := []float64{0, 1, 2}
	if got := FIFOThetaInsert(g, 1); len(got) != 3 {
		t.Errorf("exact duplicate inserted: %v", got)
	}
	if got := FIFOThetaInsert(g, 1+1e-12); len(got) != 3 {
		t.Errorf("near-equal duplicate inserted: %v", got)
	}
	got := FIFOThetaInsert(g, 1.5)
	want := []float64{0, 1, 1.5, 2}
	if len(got) != 4 {
		t.Fatalf("insert failed: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("insert out of order: %v, want %v", got, want)
		}
	}
	for j := 1; j < len(got); j++ {
		if got[j] <= got[j-1] {
			t.Fatalf("grid not strictly increasing: %v", got)
		}
	}
	// Appending at the end and at the front both keep order.
	if got := FIFOThetaInsert([]float64{1, 2}, 3); got[2] != 3 {
		t.Errorf("tail insert: %v", got)
	}
	if got := FIFOThetaInsert([]float64{1, 2}, 0.5); got[0] != 0.5 {
		t.Errorf("head insert: %v", got)
	}
}
