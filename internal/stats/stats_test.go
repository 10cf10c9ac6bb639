package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty summary should be NaN")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v", s.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if !almostEq(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Errorf("CI95 = %v", s.CI95())
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3)
	if s.Mean() != 3 || s.Min() != 3 || s.Max() != 3 {
		t.Error("single-sample summary wrong")
	}
	if !math.IsNaN(s.Variance()) || !math.IsNaN(s.CI95()) {
		t.Error("variance of 1 sample should be NaN")
	}
}

func TestSummaryNegatives(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(-1)
	if s.Min() != -5 || s.Max() != -1 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

// Property: mean lies within [min, max], variance non-negative.
func TestSummaryInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		cnt := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Bound magnitude so Welford precision holds comfortably.
			x = math.Mod(x, 1e9)
			s.Add(x)
			cnt++
		}
		if cnt == 0 {
			return true
		}
		m := s.Mean()
		if m < s.Min()-1e-6 || m > s.Max()+1e-6 {
			return false
		}
		if cnt >= 2 && s.Variance() < -1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v", q)
	}
	if q := Quantile([]float64{7}, 0.3); q != 7 {
		t.Errorf("single = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty should be NaN")
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
	// Input must be unmodified.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile modified its input")
	}
}

func TestWatermark(t *testing.T) {
	var w Watermark
	w.Adjust(5)
	w.Adjust(-2)
	w.Adjust(4)
	if w.Level() != 7 {
		t.Errorf("level = %v", w.Level())
	}
	if w.Peak() != 7 {
		t.Errorf("peak = %v", w.Peak())
	}
	w.Adjust(-7)
	if w.Peak() != 7 {
		t.Errorf("peak after drop = %v", w.Peak())
	}
	w.Set(100)
	if w.Peak() != 100 || w.Level() != 100 {
		t.Error("Set failed")
	}
}

// Property: peak is monotone non-decreasing and always >= level.
func TestWatermarkInvariant(t *testing.T) {
	f := func(deltas []int8) bool {
		var w Watermark
		prevPeak := 0.0
		for _, d := range deltas {
			w.Adjust(float64(d))
			if w.Peak() < prevPeak || w.Peak() < w.Level() {
				return false
			}
			prevPeak = w.Peak()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	if !math.IsNaN(tw.AverageUntil(10)) {
		t.Error("empty average should be NaN")
	}
	tw.Observe(0, 2) // level 2 during [0,4)
	tw.Observe(4, 6) // level 6 during [4,8)
	got := tw.AverageUntil(8)
	if !almostEq(got, 4, 1e-12) {
		t.Errorf("avg = %v, want 4", got)
	}
	// Continuing past last observation extends the last level.
	got = tw.AverageUntil(16)
	// integral = 2*4 + 6*12 = 80, over 16 => 5
	if !almostEq(got, 5, 1e-12) {
		t.Errorf("avg = %v, want 5", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0.5, 1, 3, 5, 9.9, -2, 42} {
		h.Add(x)
	}
	if h.N() != 7 {
		t.Errorf("N = %d", h.N())
	}
	// -2 clamps into bin 0, 42 clamps into bin 4.
	if h.Bin(0) != 3 { // 0.5, 1, -2
		t.Errorf("bin0 = %d", h.Bin(0))
	}
	if h.Bin(4) != 2 { // 9.9, 42
		t.Errorf("bin4 = %d", h.Bin(4))
	}
	if h.NumBins() != 5 {
		t.Errorf("NumBins = %d", h.NumBins())
	}
	if c := h.BinCenter(0); !almostEq(c, 1, 1e-12) {
		t.Errorf("BinCenter(0) = %v", c)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: histogram total count equals number of Adds.
func TestHistogramCount(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-100, 100, 13)
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
		}
		var sum int64
		for i := 0; i < h.NumBins(); i++ {
			sum += h.Bin(i)
		}
		return sum == h.N()
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}
