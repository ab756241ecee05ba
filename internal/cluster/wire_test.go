package cluster

import (
	"bufio"
	"bytes"
	"testing"
)

// The wire fuzzers feed hostile bytes to the decoders a shard runs on
// every inbound frame. Each decode must fail, or return slices whose
// element capacity the input could have paid for: a count read off the
// wire is never an allocation size by itself. Committed corpora hold the
// frames that used to end the process in an unrecoverable out-of-memory.

func FuzzDecodeLoad(f *testing.F) {
	f.Add(encodeLoad(&loadMsg{name: "g", shardID: 1, numShards: 2, n: 4, workers: 2,
		peers: []string{"a:1", "b:2"}, offsets: []uint32{0, 1, 2}, adjacency: []uint32{0, 1}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeLoad(payload)
		if err != nil {
			return
		}
		if c := cap(m.peers) + cap(m.offsets) + cap(m.adjacency); c > len(payload) {
			t.Fatalf("%d elements decoded from %d bytes", c, len(payload))
		}
	})
}

func FuzzDecodeStart(f *testing.F) {
	f.Add(encodeStart(7, "g", []int{0, 5, 300}, 0))
	f.Add(encodeStart(7, "g", []int{1}, 99))
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeStart(payload)
		if err != nil {
			return
		}
		if cap(m.sources) > len(payload) {
			t.Fatalf("%d sources decoded from %d bytes", cap(m.sources), len(payload))
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var frame bytes.Buffer
	if err := writeFrame(&frame, msgStep, 3, encodeQueryRef(9, 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(frame.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if cap(payload) > 2*len(data) {
			t.Fatalf("%d-byte payload buffer from %d input bytes", cap(payload), len(data))
		}
	})
}
