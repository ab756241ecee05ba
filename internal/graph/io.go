package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
)

// Binary graph file format (little endian):
//
//	magic   uint64  'A','B','F','S','G','R','P','H'
//	version uint32  currently 1
//	n       uint64  number of vertices
//	m       uint64  length of the adjacency array (2x undirected edges)
//	offsets (n+1) x int64
//	adjacency m x uint32
//
// The format stores the CSR arrays as they are, so loading is a straight
// read with no rebuild cost, which matters for the larger benchmark
// graphs. The offsets alone differ: they are int64 on disk and uint32 in
// memory (Graph.Offsets), so Save widens each one and Load narrows it,
// after CheckArcs has accepted the header's m.

const (
	fileMagic   = uint64(0x48505247_53464241) // "ABFSGRPH" little endian
	fileVersion = uint32(1)
	headerBytes = 8 + 4 + 8 + 8
)

// Save writes g to w in the binary graph format.
func Save(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []any{fileMagic, fileVersion, uint64(g.NumVertices()), uint64(len(g.Adjacency))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("graph: writing header: %w", err)
		}
	}
	for _, o := range g.Offsets {
		if _, err := bw.Write(binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), uint64(o))); err != nil {
			return fmt.Errorf("graph: writing offsets: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Adjacency); err != nil {
		return fmt.Errorf("graph: writing adjacency: %w", err)
	}
	return bw.Flush()
}

// Load reads a graph in the binary graph format and validates its
// structural invariants cheaply (header consistency and offset monotonicity;
// use Graph.Validate for the full check). The header is not trusted: the
// arrays grow as their bytes arrive, so a short stream that claims a huge
// graph costs an error, not the allocation it asked for.
func Load(r io.Reader) (*Graph, error) { return load(r, -1) }

// load is Load for a source of size bytes (< 0: unknown). A known size
// that covers what the header claims lets each array be allocated once.
func load(r io.Reader, size int64) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var (
		magic   uint64
		version uint32
		n, m    uint64
	)
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("graph: bad magic %#x (not a graph file)", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("graph: reading version: %w", err)
	}
	if version != fileVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: reading vertex count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	if err := CheckArcs(m); err != nil {
		return nil, err
	}
	const maxReasonable = 1 << 40
	if n > maxReasonable {
		return nil, fmt.Errorf("graph: implausible vertex count n=%d", n)
	}
	sized := size >= 0
	if need := headerBytes + 8*(n+1) + 4*m; sized && need > uint64(size) {
		return nil, fmt.Errorf("graph: header claims %d bytes (n=%d m=%d), the file has %d", need, n, m, size)
	}
	g := &Graph{}
	var err error
	if g.Offsets, err = readOffsets(br, n+1, m, sized); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if g.Adjacency, err = readArray(br, m, sized); err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	if g.Offsets[0] != 0 || uint64(g.Offsets[n]) != m {
		return nil, fmt.Errorf("graph: corrupt offsets (first=%d last=%d m=%d)", g.Offsets[0], g.Offsets[n], m)
	}
	for v := uint64(0); v < n; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return nil, fmt.Errorf("graph: corrupt offsets: not monotone at vertex %d", v)
		}
	}
	for _, u := range g.Adjacency {
		if uint64(u) >= n {
			return nil, fmt.Errorf("graph: corrupt adjacency: neighbor %d out of range", u)
		}
	}
	return g, nil
}

const readChunk = 1 << 16

// readArray reads count little-endian ids. With exact set (the source's
// size covers count) that is one allocation; otherwise the array grows a
// chunk at a time, so memory stays within a small factor of the bytes read.
func readArray(r io.Reader, count uint64, exact bool) ([]VertexID, error) {
	out := make([]VertexID, 0, initialCap(count, exact))
	for uint64(len(out)) < count {
		k := int(min(count-uint64(len(out)), readChunk))
		out = slices.Grow(out, k)[:len(out)+k]
		if err := binary.Read(r, binary.LittleEndian, out[len(out)-k:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readOffsets reads count little-endian int64 offsets a chunk at a time
// and narrows each to 32 bits, growing the result as readArray does. An
// offset outside [0, m] is corrupt; m has passed CheckArcs, so every other
// one narrows exactly.
func readOffsets(r io.Reader, count, m uint64, exact bool) ([]uint32, error) {
	wide := make([]int64, min(count, readChunk))
	out := make([]uint32, 0, initialCap(count, exact))
	for uint64(len(out)) < count {
		chunk := wide[:min(count-uint64(len(out)), readChunk)]
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		for _, o := range chunk {
			if uint64(o) > m {
				return nil, fmt.Errorf("offset %d outside [0, %d]", o, m)
			}
			out = append(out, uint32(o))
		}
	}
	return out, nil
}

// initialCap is the capacity a reader starts with: all count elements
// when the source's size vouches for them, else one chunk.
func initialCap(count uint64, exact bool) uint64 {
	if exact {
		return count
	}
	return min(count, readChunk)
}

// SaveFile writes g to the named file.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a graph from the named file.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1) // a pipe or a device: read it as a stream
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		size = st.Size()
	}
	return load(f, size)
}
