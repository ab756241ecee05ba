package cluster

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// buildWords assembles an n*stride word slab from raw bytes, repeating the
// bytes as needed. Empty raw yields all-zero words.
func buildWords(raw []byte, n, stride int) []uint64 {
	words := make([]uint64, n*stride)
	if len(raw) == 0 {
		return words
	}
	var b [8]byte
	for i := range words {
		for j := 0; j < 8; j++ {
			b[j] = raw[(i*8+j)%len(raw)]
		}
		words[i] = binary.LittleEndian.Uint64(b[:])
	}
	return words
}

func roundTrip(t *testing.T, words []uint64, n, stride int) []byte {
	t.Helper()
	enc := encodeDelta(nil, words, n, stride)
	if len(enc) > 1+rawBytes(n, stride) {
		t.Fatalf("n=%d stride=%d: encoded %d bytes, dense bound is %d", n, stride, len(enc), 1+rawBytes(n, stride))
	}
	got := make([]uint64, n*stride)
	if err := decodeDelta(enc, got, n, stride); err != nil {
		t.Fatalf("n=%d stride=%d: decode(encode(x)): %v", n, stride, err)
	}
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("n=%d stride=%d: word %d: got %#x, want %#x", n, stride, i, got[i], words[i])
		}
	}
	return enc
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 3, 64, 100, 513} {
		for _, stride := range []int{1, 2, 8} {
			// All-zero (the empty frontier delta).
			roundTrip(t, make([]uint64, n*stride), n, stride)
			// Fully dense.
			full := make([]uint64, n*stride)
			for i := range full {
				full[i] = ^uint64(0)
			}
			roundTrip(t, full, n, stride)
			// Sparse: ~2% of rows carry one word.
			sparse := make([]uint64, n*stride)
			for v := 0; v < n; v += 47 {
				sparse[v*stride+rng.Intn(stride)] = 1 << uint(rng.Intn(64))
			}
			roundTrip(t, sparse, n, stride)
			// Random occupancy.
			random := make([]uint64, n*stride)
			for i := range random {
				if rng.Intn(4) == 0 {
					random[i] = rng.Uint64()
				}
			}
			roundTrip(t, random, n, stride)
		}
	}
}

// TestDeltaCodecSparseWins checks the headline property: a sparse frontier
// delta compresses below the raw bitset slab.
func TestDeltaCodecSparseWins(t *testing.T) {
	const n, stride = 4096, 8
	words := make([]uint64, n*stride)
	for _, v := range []int{0, 100, 101, 2047, 4095} {
		words[v*stride] = 1
	}
	enc := roundTrip(t, words, n, stride)
	if enc[0] != codecSparse {
		t.Fatalf("sparse delta chose codec %#02x", enc[0])
	}
	if len(enc) >= rawBytes(n, stride)/10 {
		t.Fatalf("5-row delta encodes to %d bytes; raw is %d", len(enc), rawBytes(n, stride))
	}
}

// TestDeltaCodecDenseFallback checks a saturated delta falls back to the
// raw slab plus one tag byte instead of ballooning.
func TestDeltaCodecDenseFallback(t *testing.T) {
	const n, stride = 256, 2
	words := make([]uint64, n*stride)
	for i := range words {
		words[i] = ^uint64(0)
	}
	enc := roundTrip(t, words, n, stride)
	if enc[0] != codecDense {
		t.Fatalf("saturated delta chose codec %#02x", enc[0])
	}
	if len(enc) != 1+rawBytes(n, stride) {
		t.Fatalf("dense encoding is %d bytes, want %d", len(enc), 1+rawBytes(n, stride))
	}
}

// TestDeltaCodecAccumulates checks decode ORs into the destination rather
// than overwriting it, since a shard merges one delta per peer.
func TestDeltaCodecAccumulates(t *testing.T) {
	const n, stride = 64, 2
	a := make([]uint64, n*stride)
	b := make([]uint64, n*stride)
	a[0], a[10] = 1, 2
	b[10], b[127] = 4, 8
	dst := make([]uint64, n*stride)
	for _, w := range [][]uint64{a, b} {
		if err := decodeDelta(encodeDelta(nil, w, n, stride), dst, n, stride); err != nil {
			t.Fatal(err)
		}
	}
	if dst[0] != 1 || dst[10] != 6 || dst[127] != 8 {
		t.Fatalf("merged words = %#x %#x %#x, want 1 6 8", dst[0], dst[10], dst[127])
	}
}

// TestDeltaCodecShortSlab: a slab that holds only the first rows of the
// range (a shard's state stops at its active prefix) encodes to the bytes
// of the zero-padded full slab in both formats, decodes what it holds, and
// rejects a delta that sets a row past it.
func TestDeltaCodecShortSlab(t *testing.T) {
	const n, held, stride = 40, 36, 2
	for name, rows := range map[string][]int{"sparse": {0, 7, 24}, "dense": nil} {
		full := make([]uint64, n*stride)
		if rows == nil {
			copy(full, buildWords([]byte{0xa5, 0x3c}, held, stride))
		}
		for _, v := range rows {
			full[v*stride+1] = uint64(v) + 1
		}
		enc := encodeDelta(nil, full[:held*stride], n, stride)
		if want := encodeDelta(nil, full, n, stride); !bytes.Equal(enc, want) {
			t.Fatalf("%s: short slab encodes to %x, want %x", name, enc, want)
		}
		if (enc[0] == codecDense) != (rows == nil) {
			t.Fatalf("%s: encoder chose format %#x", name, enc[0])
		}
		got := make([]uint64, held*stride)
		if err := decodeDelta(enc, got, n, stride); err != nil {
			t.Fatalf("%s: decode into the short slab: %v", name, err)
		}
		if !slices.Equal(got, full[:held*stride]) {
			t.Errorf("%s: decoded rows differ", name)
		}
		full[held*stride] = 1
		if err := decodeDelta(encodeDelta(nil, full, n, stride), got, n, stride); err == nil {
			t.Errorf("%s: decode accepted row %d past the %d rows held", name, held, held)
		}
	}
}

func TestDeltaCodecRejectsMalformed(t *testing.T) {
	const n, stride = 16, 2
	dst := make([]uint64, n*stride)
	good := encodeDelta(nil, buildWords([]byte{0xff}, n, stride), n, stride)
	cases := map[string][]byte{
		"empty":          {},
		"unknown tag":    {0x7f},
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0x00),
		"zero gap":       {codecSparse, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"row beyond n":   {codecSparse, 1, 200, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"empty presence": {codecSparse, 1, 1, 0},
		"high presence":  {codecSparse, 1, 1, 1 << 2, 0, 0, 0, 0, 0, 0, 0, 0},
		"short dense":    {codecDense, 0, 0},
	}
	for name, payload := range cases {
		if err := decodeDelta(payload, dst, n, stride); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}

// FuzzFrontierCodec fuzzes both directions of the delta codec: encode must
// round-trip losslessly within the dense size bound, and decode must
// reject or cleanly consume arbitrary payloads without panicking or
// writing out of range.
func FuzzFrontierCodec(f *testing.F) {
	f.Add([]byte{}, 64, 8)
	f.Add([]byte{0x01}, 1, 1)
	f.Add([]byte{0xff, 0x00, 0x80}, 100, 2)
	f.Add([]byte{codecSparse, 2, 1, 1}, 16, 1)
	f.Add([]byte{codecDense, 0, 0, 0, 0, 0, 0, 0, 0}, 1, 1)
	f.Fuzz(func(t *testing.T, raw []byte, n, stride int) {
		n = ((n % 257) + 257) % 257
		stride = ((stride%codecMaxStride)+codecMaxStride)%codecMaxStride + 1

		words := buildWords(raw, n, stride)
		enc := encodeDelta(nil, words, n, stride)
		if len(enc) > 1+rawBytes(n, stride) {
			t.Fatalf("encoded %d bytes, dense bound is %d", len(enc), 1+rawBytes(n, stride))
		}
		got := make([]uint64, n*stride)
		if err := decodeDelta(enc, got, n, stride); err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		for i := range words {
			if got[i] != words[i] {
				t.Fatalf("word %d: got %#x, want %#x", i, got[i], words[i])
			}
		}
		// Re-encoding the decoded words must be deterministic.
		if enc2 := encodeDelta(nil, got, n, stride); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encode differs: %x vs %x", enc, enc2)
		}

		// Adversarial direction: raw as a hostile payload. Must not
		// panic; on success every set bit must stay in range (the OR
		// into a prior snapshot proves no out-of-slab writes).
		dst := make([]uint64, n*stride)
		_ = decodeDelta(raw, dst, n, stride)
	})
}
