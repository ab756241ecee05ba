package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Edge-list text format support. This is the de-facto interchange format of
// graph repositories (SNAP, KONECT, WebGraph dumps): one "u v" pair per
// line, '#' or '%' comment lines, arbitrary (possibly sparse) vertex ids.
// Loading compacts the ids to the dense [0, n) space the BFS kernels
// require and treats every pair as an undirected edge, the graph model of
// the paper.

// LoadEdgeList parses an edge-list text stream. Vertex ids are arbitrary
// non-negative integers; they are remapped to dense ids in order of first
// appearance. The returned ids slice maps dense id -> original id.
// Malformed lines produce an error naming the line number. The dense ids
// are read into chunks, since the edge count is unknown until the end, and
// copied once into the exact endpoint buffer that FromPairs builds the
// graph from: the load allocates the endpoints about twice, where one
// buffer grown by append allocates them about five times over. A listing
// that names an edge twice (say, in both orientations) costs FromPairs one
// more array of the distinct arcs, which is all the graph keeps.
func LoadEdgeList(r io.Reader) (g *Graph, ids []int64, err error) {
	var (
		chunks [][]VertexID // the full chunks
		chunk  []VertexID   // the chunk being filled
		remap  = make(map[int64]VertexID)
		lineNo = 0
	)
	intern := func(raw int64) VertexID {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := VertexID(len(ids))
		remap[raw] = id
		ids = append(ids, raw)
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		// Trim leading spaces cheaply.
		i := 0
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i == len(line) || line[i] == '#' || line[i] == '%' {
			continue
		}
		u, rest, perr := parseInt(line[i:])
		var v int64
		if perr == nil {
			// Extra columns (weights, timestamps) are tolerated and ignored.
			v, _, perr = parseInt(rest)
		}
		if perr == nil && (u < 0 || v < 0) {
			perr = errNegativeID
		}
		if perr != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineNo, perr)
		}
		if len(chunk) == cap(chunk) {
			if chunk != nil {
				chunks = append(chunks, chunk)
			}
			chunk = make([]VertexID, 0, min(max(2*cap(chunk), minEndpointChunk), maxEndpointChunk))
		}
		chunk = append(chunk, intern(u), intern(v))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	// One exact buffer for FromPairs. slices.Concat sizes it the same way,
	// but built with -race its Grow allocates the buffer twice.
	chunks = append(chunks, chunk)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	pairs := make([]VertexID, 0, total)
	for _, c := range chunks {
		pairs = append(pairs, c...)
	}
	return FromPairs(len(ids), pairs), ids, nil
}

var errNegativeID = errors.New("negative vertex id")

// LoadEdgeList's chunks double from minEndpointChunk endpoints up to
// maxEndpointChunk (1 MiB), so a small file allocates little and a large
// one's last, partly filled chunk wastes at most 1 MiB. Both are even: a
// pair never straddles two chunks.
const (
	minEndpointChunk = 1 << 10
	maxEndpointChunk = 1 << 18
)

// parseInt reads one whitespace-delimited integer from b and returns the
// remainder of the line.
func parseInt(b []byte) (int64, []byte, error) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	start := i
	for i < len(b) && b[i] != ' ' && b[i] != '\t' && b[i] != '\r' {
		i++
	}
	if start == i {
		return 0, nil, fmt.Errorf("missing integer field")
	}
	v, err := strconv.ParseInt(string(b[start:i]), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("bad integer %q", b[start:i])
	}
	return v, b[i:], nil
}

// SaveEdgeList writes g as an edge-list text file (each undirected edge
// once, smaller endpoint first), suitable for interchange with other graph
// tools.
func SaveEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if VertexID(v) < u {
				if _, err := fmt.Fprintf(bw, "%d\t%d\n", v, u); err != nil {
					return fmt.Errorf("graph: writing edge list: %w", err)
				}
			}
		}
	}
	return bw.Flush()
}
