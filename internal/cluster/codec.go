package cluster

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The delta-frontier codec encodes the per-iteration change a shard's scan
// produced for a peer's vertex range: an n-row, stride-word-per-row k-wide
// bitset in which most rows are zero on sparse-frontier iterations. Two
// formats share one header byte; the encoder always emits the smaller:
//
//	dense  (0x00): the n*stride words verbatim, little-endian — the raw
//	               bitset slab, chosen when the delta is dense enough that
//	               row indexing would cost more than it saves.
//	sparse (0x01): uvarint(count of nonzero rows), then per nonzero row in
//	               ascending order: uvarint row-index gap (absolute index
//	               for the first row, difference to the previous row after
//	               that), one presence byte whose bit i says word i of the
//	               row is nonzero, then the present words little-endian.
//
// This is the word-index/run-length scheme of the frontier-compression
// paper (arXiv 1705.04590) specialized to the k-wide MS-BFS state: row
// gaps are the run lengths, the presence byte prunes zero words inside a
// row. decode ORs into the destination, matching how the receiving shard
// folds remote contributions into its next frontier.

const (
	codecDense  = 0x00
	codecSparse = 0x01

	// presence bytes address at most 8 words per row — exactly the
	// bitset.MaxWords the MS-BFS state supports.
	codecMaxStride = 8
)

// rawBytes is the size of the uncompressed n-row stride-word bitset slab.
func rawBytes(n, stride int) int { return n * stride * 8 }

// encodeDelta appends the encoded delta for an n-row, stride-word row-major
// slab to dst and returns the extended slice. words holds the slab's first
// len(words)/stride rows (at most n); the rows past them are zero, so a
// shard whose state stops at its active prefix encodes the same bytes as a
// full slab. stride must be in [1, codecMaxStride].
func encodeDelta(dst []byte, words []uint64, n, stride int) []byte {
	if stride < 1 || stride > codecMaxStride {
		panic(fmt.Sprintf("cluster: codec stride %d out of range [1,%d]", stride, codecMaxStride))
	}
	held := min(n, len(words)/stride)
	live := words[:held*stride]
	// First pass: size the sparse encoding without emitting it. Gaps count
	// from row 0, so the first row's gap is its index.
	sparse, rows, prev := 1, 0, 0 // 1: the header
	var gapBuf [binary.MaxVarintLen64]byte
	for v := nextRow(live, 0, stride); v < held; v = nextRow(live, v+1, stride) {
		present := bits.OnesCount8(presence(live[v*stride : (v+1)*stride]))
		sparse += binary.PutUvarint(gapBuf[:], uint64(v-prev)) + 1 + 8*present
		prev = v
		rows++
	}
	sparse += binary.PutUvarint(gapBuf[:], uint64(rows))

	if dense := 1 + rawBytes(n, stride); sparse >= dense {
		dst = append(dst, codecDense)
		for _, w := range live {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return append(dst, make([]byte, rawBytes(n-held, stride))...)
	}

	dst = append(dst, codecSparse)
	dst = binary.AppendUvarint(dst, uint64(rows))
	prev = 0
	for v := nextRow(live, 0, stride); v < held; v = nextRow(live, v+1, stride) {
		row := live[v*stride : (v+1)*stride]
		dst = binary.AppendUvarint(dst, uint64(v-prev))
		dst = append(dst, presence(row))
		for _, w := range row {
			if w != 0 {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		}
		prev = v
	}
	return dst
}

// nextRow returns the first row at or after v that holds a nonzero word,
// or len(words)/stride when none does. It scans words, not rows: most rows
// of a level's delta are zero.
func nextRow(words []uint64, v, stride int) int {
	for j := v * stride; j < len(words); j++ {
		if words[j] != 0 {
			return j / stride
		}
	}
	return len(words) / stride
}

// presence is a row's presence byte: bit i says word i is nonzero.
func presence(row []uint64) (p byte) {
	for i, w := range row {
		if w != 0 {
			p |= 1 << i
		}
	}
	return p
}

// decodeDelta ORs an encoded delta for an n-row, stride-word row-major slab
// into words, which holds the slab's first len(words)/stride rows (at most
// n): a receiving shard's state stops at its active prefix, and no peer can
// discover a vertex past it, so a nonzero row past them is an error. A
// dense delta is ORed in one inline loop: visitDelta's call per word
// doubles the cost of a slab of nonzero words.
func decodeDelta(payload []byte, words []uint64, n, stride int) error {
	body, err := denseBody(payload, n, stride)
	if err != nil {
		return err
	}
	if body == nil {
		return visitDelta(payload, n, len(words)/max(stride, 1), stride, func(j int, w uint64) error {
			words[j] |= w //bfs:singlewriter decode runs on the one goroutine that owns words: a shard's inbox drain
			return nil
		})
	}
	held := min(n, len(words)/stride)
	for i := 0; i < held*stride; i++ {
		words[i] |= binary.LittleEndian.Uint64(body[i*8:]) //bfs:singlewriter decode runs on the one goroutine that owns words: a shard's inbox drain
	}
	return pastHeld(body, held, n, stride)
}

// denseBody returns a dense delta's slab bytes, or nil when payload is not
// a dense delta for a valid stride. A dense delta of the wrong length is
// an error.
func denseBody(payload []byte, n, stride int) ([]byte, error) {
	if len(payload) == 0 || payload[0] != codecDense || stride < 1 || stride > codecMaxStride {
		return nil, nil
	}
	if body := payload[1:]; len(body) == rawBytes(n, stride) {
		return body, nil
	}
	return nil, fmt.Errorf("cluster: dense delta is %d bytes, want %d", len(payload)-1, rawBytes(n, stride))
}

// pastHeld reports a nonzero word of a dense slab in a row at or past
// held, which the receiver does not hold.
func pastHeld(body []byte, held, n, stride int) error {
	for i := held * stride; i < n*stride; i++ {
		if binary.LittleEndian.Uint64(body[i*8:]) != 0 {
			return fmt.Errorf("cluster: dense delta: row %d set past the %d rows held", i/stride, held)
		}
	}
	return nil
}

// visitDelta walks an encoded delta for an n-row, stride-word row-major
// slab of which the first held rows exist, calling word(j, w) for every
// nonzero word w, at index j of the slab (row j/stride), in ascending
// order, and stopping at the first error word returns. A sparse delta
// costs its present words only. It validates the payload exhaustively —
// truncated input, row indices out of range or out of order, presence bits
// beyond the stride, a nonzero row at or past held, and trailing garbage
// are all errors — so arbitrary network bytes cannot corrupt shard state
// or panic.
func visitDelta(payload []byte, n, held, stride int, word func(j int, w uint64) error) error {
	if stride < 1 || stride > codecMaxStride {
		return fmt.Errorf("cluster: codec stride %d out of range [1,%d]", stride, codecMaxStride)
	}
	held = min(n, held)
	if len(payload) == 0 {
		return fmt.Errorf("cluster: empty delta payload")
	}
	switch payload[0] {
	case codecDense:
		body, err := denseBody(payload, n, stride)
		if err != nil {
			return err
		}
		for j := 0; j < held*stride; j++ {
			if w := binary.LittleEndian.Uint64(body[j*8:]); w != 0 {
				if err := word(j, w); err != nil {
					return err
				}
			}
		}
		return pastHeld(body, held, n, stride)
	case codecSparse:
		body := payload[1:]
		rows, used := binary.Uvarint(body)
		if used <= 0 {
			return fmt.Errorf("cluster: sparse delta: bad row count")
		}
		if rows > uint64(n) {
			return fmt.Errorf("cluster: sparse delta: %d rows exceeds range length %d", rows, n)
		}
		body = body[used:]
		v := 0
		for r := uint64(0); r < rows; r++ {
			gap, used := binary.Uvarint(body)
			if used <= 0 {
				return fmt.Errorf("cluster: sparse delta: truncated at row %d", r)
			}
			body = body[used:]
			if r == 0 {
				v = int(gap)
			} else {
				if gap == 0 || gap > uint64(n) {
					return fmt.Errorf("cluster: sparse delta: bad row gap %d", gap)
				}
				v += int(gap)
			}
			if v < 0 || v >= n {
				return fmt.Errorf("cluster: sparse delta: row %d out of range [0,%d)", v, n)
			}
			if v >= held {
				return fmt.Errorf("cluster: sparse delta: row %d set past the %d rows held", v, held)
			}
			if len(body) < 1 {
				return fmt.Errorf("cluster: sparse delta: missing presence byte at row %d", v)
			}
			present := body[0]
			body = body[1:]
			if present == 0 || present>>uint(stride) != 0 {
				return fmt.Errorf("cluster: sparse delta: presence byte %#02x invalid for stride %d", present, stride)
			}
			for i := 0; i < stride; i++ {
				if present&(1<<uint(i)) == 0 {
					continue
				}
				if len(body) < 8 {
					return fmt.Errorf("cluster: sparse delta: truncated word at row %d", v)
				}
				w := binary.LittleEndian.Uint64(body)
				body = body[8:]
				if w == 0 {
					continue // a present zero word: legal, and nothing to visit
				}
				if err := word(v*stride+i, w); err != nil {
					return err
				}
			}
		}
		if len(body) != 0 {
			return fmt.Errorf("cluster: sparse delta: %d trailing bytes", len(body))
		}
		return nil
	default:
		return fmt.Errorf("cluster: unknown delta format %#02x", payload[0])
	}
}
