package units

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fmtBytes and fmtRate are the fmt-based bodies String had before it
// formatted with strconv: the reference every text form must match byte for
// byte, since transcripts, verdict reasons and goldens print these strings.
func fmtBytes(b Bytes) string {
	v := float64(b)
	neg := ""
	if v < 0 {
		neg, v = "-", -v
	}
	switch {
	case v >= float64(TiB):
		return fmt.Sprintf("%s%.3g TiB", neg, v/float64(TiB))
	case v >= float64(GiB):
		return fmt.Sprintf("%s%.3g GiB", neg, v/float64(GiB))
	case v >= float64(MiB):
		return fmt.Sprintf("%s%.3g MiB", neg, v/float64(MiB))
	case v >= float64(KiB):
		return fmt.Sprintf("%s%.3g KiB", neg, v/float64(KiB))
	default:
		return fmt.Sprintf("%s%.3g B", neg, v)
	}
}

func fmtRate(r Rate) string {
	v := float64(r)
	neg := ""
	if v < 0 {
		neg, v = "-", -v
	}
	switch {
	case math.IsInf(v, 1):
		return neg + "inf"
	case v >= float64(GiBPerSec):
		return fmt.Sprintf("%s%.3g GiB/s", neg, v/float64(GiBPerSec))
	case v >= float64(MiBPerSec):
		return fmt.Sprintf("%s%.3g MiB/s", neg, v/float64(MiBPerSec))
	case v >= float64(KiBPerSec):
		return fmt.Sprintf("%s%.3g KiB/s", neg, v/float64(KiBPerSec))
	default:
		return fmt.Sprintf("%s%.3g B/s", neg, v)
	}
}

// formatEdges are the values where a text form can go wrong: signed zeros,
// infinities, NaN, subnormals, every prefix boundary and its neighbours, and
// the points where three significant digits round up into the next decade
// or the next prefix (1023.5 B, 999.5 KiB, 1 GiB/s − ε, …).
func formatEdges() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1022 / 3, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
		math.MaxFloat64, 1.005, 2.675, 0.0005, 0.00095, 9.995, 99.95,
	}
	var scales []float64
	for _, s := range []Bytes{B, KiB, MiB, GiB, TiB} {
		scales = append(scales, float64(s))
	}
	for _, s := range scales {
		for _, m := range []float64{1, 9.995, 99.95, 999.5, 1023.5, 1024, 1e3, 1e4, 1e5} {
			x := s * m
			vs = append(vs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		}
	}
	// Every three-digit rounding midpoint n.n5 of the first decade, at every
	// prefix and at the decades either side.
	for n := 100; n < 1000; n++ {
		for _, s := range scales {
			for _, d := range []float64{0.01, 1, 100} {
				x := (float64(n) + 0.5) * d * s
				vs = append(vs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
			}
		}
	}
	out := make([]float64, 0, 2*len(vs))
	for _, v := range vs {
		out = append(out, v, -v)
	}
	return out
}

func checkFormat(t *testing.T, v float64) bool {
	t.Helper()
	ok := true
	b, r := Bytes(v), Rate(v)
	bt, _ := b.MarshalText()
	rt, _ := r.MarshalText()
	if want := fmtBytes(b); b.String() != want || string(bt) != want {
		t.Errorf("Bytes(%v): String %q, MarshalText %q, want %q", v, b.String(), bt, want)
		ok = false
	}
	if want := fmtRate(r); r.String() != want || string(rt) != want {
		t.Errorf("Rate(%v): String %q, MarshalText %q, want %q", v, r.String(), rt, want)
		ok = false
	}
	return ok
}

var textSink []byte

func TestUnitsStringMatchesFmt(t *testing.T) {
	for _, v := range formatEdges() {
		checkFormat(t, v)
	}
	// A seeded log-uniform sweep of magnitudes 1e-20…1e20, either sign.
	rng := rand.New(rand.NewSource(50))
	fails := 0
	for i := 0; i < 1_000_000 && fails < 10; i++ {
		v := math.Pow(10, 40*rng.Float64()-20)
		if rng.Intn(2) == 0 {
			v = -v
		}
		if !checkFormat(t, v) {
			fails++
		}
	}
	// MarshalText appends into the one slice it returns.
	for _, v := range []float64{20.6 * float64(MiB), -1.23e-20, math.Inf(1)} {
		b, r := Bytes(v), Rate(v)
		if n := testing.AllocsPerRun(100, func() { textSink, _ = b.MarshalText() }); n != 1 {
			t.Errorf("Bytes.MarshalText: %v allocs, want 1", n)
		}
		if n := testing.AllocsPerRun(100, func() { textSink, _ = r.MarshalText() }); n != 1 {
			t.Errorf("Rate.MarshalText: %v allocs, want 1", n)
		}
	}
}
