package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{KiB, "1 KiB"},
		{1536, "1.5 KiB"},
		{MiB, "1 MiB"},
		{20.6 * MiB, "20.6 MiB"},
		{GiB, "1 GiB"},
		{-2 * MiB, "-2 MiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		in   Rate
		want string
	}{
		{350 * MiBPerSec, "350 MiB/s"},
		{10 * GiBPerSec, "10 GiB/s"},
		{Rate(math.Inf(1)), "inf"},
		{100, "100 B/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Rate.String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"16MiB", 16 * MiB},
		{"1.5 GiB", 1.5 * GiB},
		{"512 B", 512},
		{"2048", 2048},
		{"3KiB", 3 * KiB},
		{"1MB", 1e6},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "12QiB", "MiB"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q): expected error", in)
		}
	}
}

func TestParseRate(t *testing.T) {
	got, err := ParseRate("350 MiB/s")
	if err != nil {
		t.Fatal(err)
	}
	if got != 350*MiBPerSec {
		t.Errorf("got %v", got)
	}
	if _, err := ParseRate("x/s"); err == nil {
		t.Error("expected error")
	}
}

func TestBytesTime(t *testing.T) {
	if d := (350 * MiB).Time(350 * MiBPerSec); d != time.Second {
		t.Errorf("Time = %v, want 1s", d)
	}
	if d := Bytes(100).Time(0); d != time.Duration(math.MaxInt64) {
		t.Errorf("zero-rate Time = %v, want max", d)
	}
}

func TestBytesOver(t *testing.T) {
	if r := (2 * MiB).Over(2 * time.Second); r != MiBPerSec {
		t.Errorf("Over = %v", r)
	}
	if r := Bytes(0).Over(0); r != 0 {
		t.Errorf("0/0 = %v, want 0", r)
	}
	if r := Bytes(1).Over(0); !math.IsInf(float64(r), 1) {
		t.Errorf("1/0 = %v, want +Inf", r)
	}
}

func TestRateBytes(t *testing.T) {
	if b := (10 * MiBPerSec).Bytes(500 * time.Millisecond); b != 5*MiB {
		t.Errorf("Bytes = %v", b)
	}
}

func TestTextRoundTrip(t *testing.T) {
	b := 20.5 * MiB
	txt, err := b.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Bytes
	if err := back.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(back-b)) > float64(b)*1e-2 {
		t.Errorf("round trip %v -> %s -> %v", float64(b), txt, float64(back))
	}

	r := 350 * MiBPerSec
	txt, err = r.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var rback Rate
	if err := rback.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rback-r)) > float64(r)*1e-2 {
		t.Errorf("round trip %v -> %s -> %v", float64(r), txt, float64(rback))
	}
	if err := rback.UnmarshalText([]byte("nope")); err == nil {
		t.Error("expected error")
	}
	var bb Bytes
	if err := bb.UnmarshalText([]byte("nope")); err == nil {
		t.Error("expected error")
	}
}

// Property: Time and Over are inverses up to the whole nanosecond Time
// truncates to: 0 <= b - r.Bytes(b.Time(r)) <= r·1ns, give or take float
// rounding.
func TestTimeOverInverse(t *testing.T) {
	f := func(vol uint32, rate uint32) bool {
		b := Bytes(vol%(1<<20) + 1)
		r := Rate(rate%(1<<20) + 1)
		lost := float64(b - r.Bytes(b.Time(r)))
		slack := float64(b) * 1e-12
		return lost >= -slack && lost <= float64(r)*1e-9+slack
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips within formatting precision.
func TestStringParseRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := Bytes(v % uint64(10*TiB))
		parsed, err := ParseBytes(b.String())
		if err != nil {
			return false
		}
		// %.3g keeps 3 significant digits.
		return math.Abs(float64(parsed-b)) <= float64(b)*5e-3+1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
