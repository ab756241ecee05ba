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
// The format stores the CSR arrays verbatim so loading is a straight read
// with no rebuild cost, which matters for the larger benchmark graphs.

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
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return fmt.Errorf("graph: writing offsets: %w", err)
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
	const maxReasonable = 1 << 40
	if n > maxReasonable || m > maxReasonable {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n, m)
	}
	sized := size >= 0
	if need := headerBytes + 8*(n+1) + 4*m; sized && need > uint64(size) {
		return nil, fmt.Errorf("graph: header claims %d bytes (n=%d m=%d), the file has %d", need, n, m, size)
	}
	g := &Graph{}
	var err error
	if g.Offsets, err = readArray[int64](br, n+1, sized); err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if g.Adjacency, err = readArray[VertexID](br, m, sized); err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	if g.Offsets[0] != 0 || g.Offsets[n] != int64(m) {
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

// readArray reads count little-endian values. With exact set (the source's
// size covers count) that is one allocation; otherwise the array grows a
// chunk at a time, so memory stays within a small factor of the bytes read.
func readArray[T int64 | VertexID](r io.Reader, count uint64, exact bool) ([]T, error) {
	const chunk = 1 << 16
	capacity := count
	if !exact {
		capacity = min(count, chunk)
	}
	out := make([]T, 0, capacity)
	for uint64(len(out)) < count {
		k := int(min(count-uint64(len(out)), chunk))
		out = slices.Grow(out, k)[:len(out)+k]
		if err := binary.Read(r, binary.LittleEndian, out[len(out)-k:]); err != nil {
			return nil, err
		}
	}
	return out, nil
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
