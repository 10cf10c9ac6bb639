package curve

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the merge kernels across curve sizes.

// benchConcave builds an n-segment concave curve (decreasing slopes).
func benchConcave(n int) Curve {
	segs := make([]Segment, n)
	x, y := 0.0, 10.0
	for i := 0; i < n; i++ {
		slope := 1000.0 / float64(i+1)
		segs[i] = Segment{x, y, slope}
		x += 1
		y += slope
	}
	return New(0, segs)
}

// benchConvex builds an n-segment convex curve (increasing slopes).
func benchConvex(n int) Curve {
	segs := make([]Segment, n)
	x, y := 0.0, 0.0
	for i := 0; i < n; i++ {
		slope := float64(i + 1)
		segs[i] = Segment{x, y, slope}
		x += 1
		y += slope
	}
	return New(0, segs)
}

var benchSizes = []int{2, 10, 100, 1000}

func BenchmarkMin(b *testing.B) {
	for _, n := range benchSizes {
		f := benchConcave(n)
		g := ShiftRight(benchConcave(n), 0.5)
		b.Run(fmt.Sprintf("segs-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Min(f, g)
			}
		})
	}
}

func BenchmarkMinSortedReference(b *testing.B) {
	for _, n := range benchSizes {
		f := benchConcave(n)
		g := ShiftRight(benchConcave(n), 0.5)
		b.Run(fmt.Sprintf("segs-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				combineSorted(f, g, binMin)
			}
		})
	}
}

func BenchmarkConvolveConvex(b *testing.B) {
	for _, n := range benchSizes {
		f := benchConvex(n)
		g := ShiftRight(benchConvex(n), 0.5)
		b.Run(fmt.Sprintf("segs-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Convolve(f, g)
			}
		})
	}
}

func BenchmarkDeconvolve(b *testing.B) {
	for _, n := range benchSizes {
		alpha := benchConcave(n)
		beta := RateLatency(alpha.UltimateSlope()+10, 2)
		b.Run(fmt.Sprintf("segs-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Deconvolve(alpha, beta)
			}
		})
	}
}

func BenchmarkDigest(b *testing.B) {
	for _, n := range benchSizes {
		segs := benchConcave(n).Segments()
		b.Run(fmt.Sprintf("segs-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				digestCurve(0, segs)
			}
		})
	}
}
