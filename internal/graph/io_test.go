package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed sizes: n=%d m=%d", g2.NumVertices(), g2.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: neighbor count differs", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: neighbors differ", v)
			}
		}
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	g := FromEdges(0, nil)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 0 || g2.NumEdges() != 0 {
		t.Error("empty graph round trip failed")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	_, err := Load(bytes.NewReader(make([]byte, 64)))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not rejected: %v", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {2, 3}})
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 12, 20, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestLoadRejectsCorruptOffsets(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {2, 3}})
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Offsets start after magic(8)+version(4)+n(8)+m(8) = 28 bytes.
	// Make offsets[1] > offsets[2] (non-monotone).
	binary.LittleEndian.PutUint64(data[28+8:], 1000)
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt offsets not detected")
	}
}

func TestLoadRejectsCorruptAdjacency(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}})
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Adjacency is the last 2 uint32s; point one out of range.
	binary.LittleEndian.PutUint32(data[len(data)-4:], 77)
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("out-of-range adjacency not detected")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[8:], 99)
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("wrong version not rejected")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {3, 4}})
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", g2.NumEdges())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

// TestLoadBoundsAllocationByInput: a header is a claim, not a budget. The
// first case is the 32-byte file FuzzLoad found (n = 2^33, m ≈ 1.3e10: 64 GB
// of offsets asked for, a fatal out-of-memory before the first read); each
// must come back as an error having allocated about what it delivered, as
// a stream and as a file.
func TestLoadBoundsAllocationByInput(t *testing.T) {
	header := func(n, m uint64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, fileMagic)
		b = binary.LittleEndian.AppendUint32(b, fileVersion)
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, n), m)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"FuzzLoad crasher", []byte("ABFSGRPH\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00")},
		{"largest plausible n and m", header(1<<40, 1<<40)},
		{"huge m behind honest offsets", append(header(1, 1<<40), make([]byte, 16)...)},
		{"a megabyte of a terabyte", append(header(1<<37, 0), make([]byte, 1<<20)...)},
	} {
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(path, tc.data, 0o600); err != nil {
			t.Fatal(err)
		}
		for how, load := range map[string]func() (*Graph, error){
			"stream": func() (*Graph, error) { return Load(bytes.NewReader(tc.data)) },
			"file":   func() (*Graph, error) { return LoadFile(path) },
		} {
			var err error
			alloc := totalAlloc(func() { _, err = load() })
			if err == nil {
				t.Errorf("%s (%s): accepted", tc.name, how)
			}
			// The bufio buffer is 1 MB; binary.Read stages each chunk once more.
			if limit := int64(4<<20 + 4*len(tc.data)); alloc > limit {
				t.Errorf("%s (%s): allocated %d bytes for %d bytes of input (limit %d)", tc.name, how, alloc, len(tc.data), limit)
			}
		}
	}
}

// TestLoadRoundTripAcrossChunks: arrays longer than one read chunk come
// back identical through both the streaming and the sized path.
func TestLoadRoundTripAcrossChunks(t *testing.T) {
	const n = 3<<16 + 17
	g := FromEdges(n, randomEdges(n, 5<<16, 0x9e3779b97f4a7c15))
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Load(bytes.NewReader(data))
	if err != nil || !graphsEqual(streamed, g) {
		t.Errorf("streamed load: err %v, equal %v", err, err == nil && graphsEqual(streamed, g))
	}
	sized, err := LoadFile(path)
	if err != nil || !graphsEqual(sized, g) {
		t.Errorf("file load: err %v, equal %v", err, err == nil && graphsEqual(sized, g))
	}
}
