// Package units provides data-size and data-rate quantities used throughout
// the network-calculus models, the discrete-event simulator, and the
// measurement harnesses.
//
// Internally all data volumes are float64 bytes and all rates are float64
// bytes per second. The type wrappers exist to keep call sites readable and
// to centralize parsing/formatting of the binary-prefixed units (KiB, MiB,
// GiB) that the paper reports.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Bytes is a data volume in bytes. Fractional values are permitted because
// model curves are continuous fluid approximations.
type Bytes float64

// Binary-prefixed data-volume constants.
const (
	B   Bytes = 1
	KiB Bytes = 1024
	MiB Bytes = 1024 * 1024
	GiB Bytes = 1024 * 1024 * 1024
	TiB Bytes = 1024 * 1024 * 1024 * 1024
)

// Rate is a data rate in bytes per second.
type Rate float64

// Common data-rate constants.
const (
	BytePerSec Rate = 1
	KiBPerSec  Rate = 1024
	MiBPerSec  Rate = 1024 * 1024
	GiBPerSec  Rate = 1024 * 1024 * 1024
)

// PerSecond returns the rate corresponding to transferring b bytes every
// second.
func (b Bytes) PerSecond() Rate { return Rate(b) }

// Over returns the rate achieved by moving b bytes in d. It returns +Inf for
// non-positive durations of positive volumes and 0 for zero volume.
func (b Bytes) Over(d time.Duration) Rate {
	if d <= 0 {
		if b == 0 {
			return 0
		}
		return Rate(math.Inf(1))
	}
	return Rate(float64(b) / d.Seconds())
}

// Time returns how long transferring b bytes takes at rate r.
// A non-positive rate yields an infinite duration (reported as the maximum
// representable time.Duration).
func (b Bytes) Time(r Rate) time.Duration {
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	sec := float64(b) / float64(r)
	if sec >= float64(math.MaxInt64)/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(sec * float64(time.Second))
}

// Mul scales the volume by x.
func (b Bytes) Mul(x float64) Bytes { return Bytes(float64(b) * x) }

// Bytes returns the volume moved at rate r during d.
func (r Rate) Bytes(d time.Duration) Bytes { return Bytes(float64(r) * d.Seconds()) }

// Mul scales the rate by x.
func (r Rate) Mul(x float64) Rate { return Rate(float64(r) * x) }

// String formats the volume with an automatically chosen binary prefix,
// e.g. "20.6 MiB".
func (b Bytes) String() string {
	var buf [24]byte
	return string(b.appendText(buf[:0]))
}

// String formats the rate with an automatically chosen binary prefix,
// e.g. "350 MiB/s".
func (r Rate) String() string {
	var buf [24]byte
	return string(r.appendText(buf[:0]))
}

// prefix is one binary prefix of a quantity's text form.
type prefix struct {
	scale  float64
	suffix string
}

var (
	bytePrefixes = []prefix{{float64(TiB), " TiB"}, {float64(GiB), " GiB"}, {float64(MiB), " MiB"}, {float64(KiB), " KiB"}, {1, " B"}}
	ratePrefixes = []prefix{{float64(GiBPerSec), " GiB/s"}, {float64(MiBPerSec), " MiB/s"}, {float64(KiBPerSec), " KiB/s"}, {1, " B/s"}}
)

func (b Bytes) appendText(dst []byte) []byte {
	return appendQuantity(dst, float64(b), bytePrefixes)
}

func (r Rate) appendText(dst []byte) []byte {
	if math.IsInf(float64(r), 0) {
		if r < 0 {
			dst = append(dst, '-')
		}
		return append(dst, "inf"...)
	}
	return appendQuantity(dst, float64(r), ratePrefixes)
}

// appendQuantity appends v in the largest of prefixes (ordered largest
// first) that does not exceed |v|, to three significant digits: the bytes
// fmt's "%.3g" prints.
func appendQuantity(dst []byte, v float64, prefixes []prefix) []byte {
	if v < 0 {
		dst, v = append(dst, '-'), -v
	}
	p := prefixes[len(prefixes)-1]
	for _, q := range prefixes {
		if v >= q.scale {
			p = q
			break
		}
	}
	dst = strconv.AppendFloat(dst, v/p.scale, 'g', 3, 64)
	return append(dst, p.suffix...)
}

var sizeSuffixes = []struct {
	suffix string
	unit   Bytes
}{
	{"TiB", TiB}, {"GiB", GiB}, {"MiB", MiB}, {"KiB", KiB},
	{"TB", 1e12}, {"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3},
	{"B", B},
}

// ParseBytes parses strings such as "16MiB", "1.5 GiB", "512 B", "2048".
// A bare number is interpreted as bytes.
func ParseBytes(s string) (Bytes, error) {
	t := strings.TrimSpace(s)
	for _, sf := range sizeSuffixes {
		if strings.HasSuffix(t, sf.suffix) {
			num := strings.TrimSpace(strings.TrimSuffix(t, sf.suffix))
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("units: parse %q: %w", s, err)
			}
			return Bytes(v) * sf.unit, nil
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse %q: %w", s, err)
	}
	return Bytes(v), nil
}

// ParseRate parses strings such as "350MiB/s", "10 GiB/s", "1024" (bytes/s).
func ParseRate(s string) (Rate, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimSuffix(t, "/s")
	b, err := ParseBytes(t)
	if err != nil {
		return 0, fmt.Errorf("units: parse rate %q: %w", s, err)
	}
	return Rate(b), nil
}

// MarshalText implements encoding.TextMarshaler for Bytes.
func (b Bytes) MarshalText() ([]byte, error) { return b.appendText(make([]byte, 0, 24)), nil }

// UnmarshalText implements encoding.TextUnmarshaler for Bytes.
func (b *Bytes) UnmarshalText(text []byte) error {
	v, err := ParseBytes(string(text))
	if err != nil {
		return err
	}
	*b = v
	return nil
}

// MarshalText implements encoding.TextMarshaler for Rate.
func (r Rate) MarshalText() ([]byte, error) { return r.appendText(make([]byte, 0, 24)), nil }

// UnmarshalText implements encoding.TextUnmarshaler for Rate.
func (r *Rate) UnmarshalText(text []byte) error {
	v, err := ParseRate(string(text))
	if err != nil {
		return err
	}
	*r = v
	return nil
}
