package aesstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"streamcalc/internal/gen"
)

func key() []byte { return bytes.Repeat([]byte{0x42}, KeySize) }

func TestRoundTrip(t *testing.T) {
	enc, err := New(key(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := New(key(), 1)
	for _, n := range []int{0, 1, 15, 16, 17, 1000, 65536} {
		src := gen.Text(n, 0.5, uint64(n))
		ct := enc.Encrypt(src, 4096)
		pt, err := dec.Decrypt(ct)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(pt, src) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestKeyValidation(t *testing.T) {
	if _, err := New([]byte("short"), 0); err == nil {
		t.Error("short key must fail")
	}
}

func TestWrongKeyFailsOrGarbles(t *testing.T) {
	enc, _ := New(key(), 1)
	other := bytes.Repeat([]byte{0x24}, KeySize)
	dec, _ := New(other, 1)
	src := gen.Text(1000, 0.5, 3)
	ct := enc.Encrypt(src, 256)
	pt, err := dec.Decrypt(ct)
	if err == nil && bytes.Equal(pt, src) {
		t.Error("wrong key must not recover plaintext")
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	enc, _ := New(key(), 1)
	src := gen.Repetitive(4096, "secret ")
	ct := enc.Encrypt(src, 1024)
	if bytes.Contains(ct, src[:64]) {
		t.Error("ciphertext leaks plaintext")
	}
	// Identical chunks must encrypt differently (fresh IV per chunk).
	c1 := enc.EncryptChunk(nil, src[:1024])
	c2 := enc.EncryptChunk(nil, src[:1024])
	if bytes.Equal(c1[20:], c2[20:]) {
		t.Error("identical chunks produced identical ciphertext")
	}
}

func TestDecryptErrors(t *testing.T) {
	dec, _ := New(key(), 1)
	cases := [][]byte{
		{1, 2, 3},                     // short header
		append(make([]byte, 4+16), 0), // length 0
		{0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // not block-multiple
	}
	for i, c := range cases {
		if _, err := dec.Decrypt(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Truncated frame.
	enc, _ := New(key(), 1)
	ct := enc.Encrypt(gen.Text(100, 0.5, 1), 64)
	if _, err := dec.Decrypt(ct[:len(ct)-5]); err == nil {
		t.Error("truncated frame must fail")
	}
	// Corrupted padding.
	ct2 := enc.Encrypt(gen.Text(100, 0.5, 2), 256)
	ct2[len(ct2)-1] ^= 0xFF
	if _, err := dec.Decrypt(ct2); err == nil {
		t.Error("corrupted ciphertext should break padding with high probability")
	}
}

func TestChunkingIndependence(t *testing.T) {
	// The same data encrypted with different chunk sizes must still decrypt.
	src := gen.Text(10000, 0.4, 5)
	for _, chunk := range []int{1, 100, 1024, 100000} {
		enc, _ := New(key(), 9)
		dec, _ := New(key(), 9)
		pt, err := dec.Decrypt(enc.Encrypt(src, chunk))
		if err != nil || !bytes.Equal(pt, src) {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
	}
}

func TestOverhead(t *testing.T) {
	if Overhead() != 36 {
		t.Errorf("overhead = %d", Overhead())
	}
	enc, _ := New(key(), 1)
	src := make([]byte, 1024)
	ct := enc.EncryptChunk(nil, src)
	if len(ct) > 1024+Overhead() {
		t.Errorf("chunk overhead exceeded: %d", len(ct))
	}
}

func TestRoundTripQuick(t *testing.T) {
	enc, _ := New(key(), 7)
	dec, _ := New(key(), 7)
	f := func(src []byte) bool {
		pt, err := dec.Decrypt(enc.Encrypt(src, 512))
		return err == nil && bytes.Equal(pt, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	enc, _ := New(key(), 1)
	src := gen.Text(1<<20, 0.5, 1)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encrypt(src, 4096)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	enc, _ := New(key(), 1)
	dec, _ := New(key(), 1)
	src := gen.Text(1<<20, 0.5, 1)
	ct := enc.Encrypt(src, 4096)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}
