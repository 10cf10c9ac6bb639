package lz4

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"streamcalc/internal/gen"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	c := Compress(nil, src)
	d, err := Decompress(nil, c, len(src)+16)
	if err != nil {
		t.Fatalf("decompress: %v (input %d bytes)", err, len(src))
	}
	if !bytes.Equal(d, src) {
		t.Fatalf("round trip mismatch: in %d bytes, out %d bytes", len(src), len(d))
	}
	return c
}

func TestRoundTripEmpty(t *testing.T) {
	if c := Compress(nil, nil); len(c) != 0 {
		t.Errorf("empty input compressed to %d bytes", len(c))
	}
	d, err := Decompress(nil, nil, 0)
	if err != nil || len(d) != 0 {
		t.Errorf("empty decompress: %v %d", err, len(d))
	}
}

func TestRoundTripShort(t *testing.T) {
	for n := 1; n <= 20; n++ {
		roundTrip(t, bytes.Repeat([]byte{'x'}, n))
		roundTrip(t, gen.Incompressible(n, uint64(n)))
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := gen.Repetitive(100000, "")
	c := roundTrip(t, src)
	if ratio := float64(len(src)) / float64(len(c)); ratio < 10 {
		t.Errorf("repetitive data should compress > 10x, got %.1f", ratio)
	}
}

func TestRoundTripIncompressible(t *testing.T) {
	src := gen.Incompressible(100000, 1)
	c := roundTrip(t, src)
	if len(c) > len(src)+len(src)/200+16 {
		t.Errorf("expansion too large: %d -> %d", len(src), len(c))
	}
	if r := Ratio(src); r > 1.02 {
		t.Errorf("incompressible ratio = %.3f", r)
	}
}

func TestRoundTripTunableRedundancy(t *testing.T) {
	// The gen.Text redundancy knob must span the paper's observed
	// compression ratios (1.0 min, 2.2 avg, 5.3 max).
	low := Ratio(gen.Text(1<<20, 0.1, 2))
	mid := Ratio(gen.Text(1<<20, 0.4, 2))
	high := Ratio(gen.Text(1<<20, 0.9, 2))
	if !(low < mid && mid < high) {
		t.Errorf("ratios must increase with redundancy: %.2f %.2f %.2f", low, mid, high)
	}
	if high < 4 {
		t.Errorf("high-redundancy ratio %.2f, want > 4", high)
	}
	roundTrip(t, gen.Text(1<<20, 0.4, 3))
	roundTrip(t, gen.Text(1<<20, 0.9, 4))
}

func TestRoundTripOverlappingMatches(t *testing.T) {
	// RLE-style data exercises overlapping copies (offset < matchLen).
	src := append([]byte{'a'}, bytes.Repeat([]byte{'b'}, 1000)...)
	src = append(src, "tail-literals"...)
	roundTrip(t, src)
}

func TestRoundTripLongLiteralRuns(t *testing.T) {
	// > 255+15 literals forces multi-byte length extensions.
	src := gen.Incompressible(1000, 5)
	src = append(src, bytes.Repeat([]byte("pattern!"), 100)...)
	roundTrip(t, src)
}

func TestRoundTripDNA(t *testing.T) {
	roundTrip(t, gen.DNA(1<<16, 7))
	seq, _ := gen.DNAWithPlants(1<<16, gen.DNA(500, 8), 4096, 9)
	roundTrip(t, seq)
}

func TestDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		{0x10},            // 1 literal promised, none present
		{0x01, 'a'},       // match with missing offset
		{0x01, 'a', 0, 0}, // zero offset
		{0x01, 'a', 9, 0}, // offset beyond output
		{0xF0, 255},       // unterminated length extension
	}
	for i, c := range cases {
		if _, err := Decompress(nil, c, 1<<20); err == nil {
			t.Errorf("case %d: expected corruption error", i)
		}
	}
}

func TestDecompressSizeLimit(t *testing.T) {
	src := gen.Repetitive(10000, "abcd")
	c := Compress(nil, src)
	if _, err := Decompress(nil, c, 100); err == nil {
		t.Error("expected size-limit error")
	}
}

func TestMaxCompressedLen(t *testing.T) {
	if MaxCompressedLen(-1) != 0 {
		t.Error("negative input")
	}
	for _, n := range []int{0, 1, 100, 100000} {
		src := gen.Incompressible(n, uint64(n))
		c := Compress(nil, src)
		if len(c) > MaxCompressedLen(n) {
			t.Errorf("n=%d: compressed %d exceeds bound %d", n, len(c), MaxCompressedLen(n))
		}
	}
}

func TestCompressAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	src := gen.Text(5000, 0.5, 11)
	c := Compress(append([]byte(nil), prefix...), src)
	if !bytes.HasPrefix(c, prefix) {
		t.Fatal("Compress must append to dst")
	}
	d, err := Decompress(nil, c[len(prefix):], len(src))
	if err != nil || !bytes.Equal(d, src) {
		t.Fatal("append-mode round trip failed")
	}
}

// Property: every byte slice round-trips.
func TestRoundTripQuick(t *testing.T) {
	f := func(src []byte) bool {
		c := Compress(nil, src)
		d, err := Decompress(nil, c, len(src)+16)
		return err == nil && bytes.Equal(d, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompressText(b *testing.B) {
	src := gen.Text(1<<20, 0.6, 1)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(nil, src)
	}
}

func BenchmarkDecompressText(b *testing.B) {
	src := gen.Text(1<<20, 0.6, 1)
	c := Compress(nil, src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(nil, c, len(src)); err != nil {
			b.Fatal(err)
		}
	}
}
