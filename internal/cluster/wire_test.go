package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
	f.Add(encodeStart(7, "g", []int{0, 5, 300}, 0, true))
	f.Add(encodeStart(7, "g", []int{1}, 99, true))
	f.Add(encodeStart(7, "g", []int{0, 5, 300}, 0, false))
	f.Add(encodeStart(7, "g", []int{1}, 99, false))
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

// TestStartRoundTrip: msgStart carries the trace id and whether the shards
// record levels in each combination, and rejects a flag it does not know.
func TestStartRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		traceID uint64
		record  bool
	}{{0, true}, {99, true}, {0, false}, {99, false}} {
		m, err := decodeStart(encodeStart(7, "g", []int{0, 5, 300}, tc.traceID, tc.record))
		if err != nil || m.qid != 7 || m.name != "g" || len(m.sources) != 3 ||
			m.traceID != tc.traceID || m.record != tc.record {
			t.Errorf("trace %d record %t: decoded %+v, %v", tc.traceID, tc.record, m, err)
		}
	}
	bad := binary.AppendUvarint(encodeStart(7, "g", []int{1}, 0, true), 0)
	bad = binary.AppendUvarint(bad, startNoLevels+1)
	if _, err := decodeStart(bad); err == nil {
		t.Error("unknown msgStart flag accepted")
	}
}

// FuzzDecodeStepDone feeds hostile step replies to the coordinator's
// decoder, read or not: a reply must fail, or carry a discovery section
// exactly when the batch reads and re-encode to a reply that decodes the
// same.
func FuzzDecodeStepDone(f *testing.F) {
	plain := stepDone{nextStates: 7, sentBytes: 100, rawBytes: 300}
	traced := plain
	traced.trace = &stepTrace{scanNanos: 1, encodeNanos: 2, sendNanos: 3,
		waitNanos: 4, decodeNanos: 5, applyNanos: 6, scanned: 7, frontier: 8}
	found := encodeDelta(nil, []uint64{0, 5, 0, 1 << 63}, 4, 1)
	f.Add(encodeStepDone(plain), false)
	f.Add(encodeStepDone(traced), false)
	plain.found, traced.found = found, found
	f.Add(encodeStepDone(plain), true)
	f.Add(encodeStepDone(traced), true)
	f.Fuzz(func(t *testing.T, payload []byte, read bool) {
		d, err := decodeStepDone(payload, read)
		if err != nil {
			return
		}
		if (d.found != nil) != read {
			t.Fatalf("read %t: decoded discovery section %x", read, d.found)
		}
		again, err := decodeStepDone(encodeStepDone(d), read)
		if err != nil {
			t.Fatalf("re-encoded reply: %v", err)
		}
		if again.nextStates != d.nextStates || again.sentBytes != d.sentBytes || again.rawBytes != d.rawBytes ||
			!bytes.Equal(again.found, d.found) || (again.trace == nil) != (d.trace == nil) ||
			(d.trace != nil && *again.trace != *d.trace) {
			t.Fatalf("re-encoded reply decodes to %+v, want %+v", again, d)
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
