package curve

import "math"

// Structural digests (hash-consing support).
//
// Every Curve carries a 64-bit digest of its normalized representation,
// computed once at construction. Because constructors canonicalize the
// segment list (collinear merge, coincident-breakpoint resolution, noise
// clamping) before hashing, two curves built through the same normalized
// representation share a digest, and the digest can serve as a value
// identity: Equal short-circuits on it.
//
// The digest is a splitmix64-style avalanche hash over the float64 bit
// patterns of f(0) and every segment's (X, Y, Slope), with -0 folded into
// +0 so the two zero representations hash identically (NaN never reaches
// the hash: validation rejects it). Digest equality therefore means
// bit-identical normalized representations, up to a 2^-64 collision risk
// that the design accepts — the same trade hash-consed curve libraries
// (e.g. Nancy) make.

// mix64 folds one 64-bit word into the running digest with a
// multiply-xorshift avalanche step.
func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h
}

// fbits returns the canonical bit pattern of v (-0 folds to +0).
func fbits(v float64) uint64 {
	if v == 0 {
		v = 0 // fold -0 into +0
	}
	return math.Float64bits(v)
}

// digestCurve hashes a normalized curve representation.
func digestCurve(y0 float64, segs []Segment) uint64 {
	h := 0x9e3779b97f4a7c15 ^ uint64(len(segs))
	h = mix64(h, fbits(y0))
	for _, s := range segs {
		h = mix64(h, fbits(s.X))
		h = mix64(h, fbits(s.Y))
		h = mix64(h, fbits(s.Slope))
	}
	// Final avalanche so truncated uses of the digest stay well mixed.
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h
}

// Digest returns the curve's structural 64-bit digest, computed once at
// construction over the normalized representation. Curves with equal
// digests are (up to hash collision) structurally identical; the digest is
// stable for the lifetime of the process but NOT across processes or
// releases — persist curves, not digests.
func (c Curve) Digest() uint64 { return c.digest }
