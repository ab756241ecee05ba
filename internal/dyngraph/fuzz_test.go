package dyngraph

import (
	"reflect"
	"slices"
	"testing"

	msbfs "repro"
	"repro/internal/core"
	"repro/internal/graph"
)

// checkOracleAllKernels is the metamorphic snapshot oracle: BFS levels
// over the snapshot (CSR + delta overlay) must be byte-identical to BFS
// over a CSR rebuilt from scratch with the version's visible edges — for
// the multi-source, single-source (bit and byte state) and sequential
// kernels, under auto, forced top-down and forced bottom-up direction.
func checkOracleAllKernels(t *testing.T, snap *Snapshot, n int, visible []graph.Edge, sources []int) {
	t.Helper()
	oracle := graph.FromEdges(n, visible)
	if got, want := snap.NumEdges(), oracle.NumEdges(); got != want {
		t.Fatalf("v%d: snapshot has %d edges, oracle %d", snap.Version(), got, want)
	}
	for _, dir := range []struct {
		name string
		dir  core.Direction
	}{{"auto", core.Auto}, {"topdown", core.TopDownOnly}, {"bottomup", core.BottomUpOnly}} {
		opt := core.Options{Workers: 2, RecordLevels: true, Direction: dir.dir}
		snapOpt := opt
		snapOpt.Overlay = snap.Overlay()

		want := core.MSPBFS(oracle, sources, opt)
		got := core.MSPBFS(snapInternal(snap), sources, snapOpt)
		for i := range sources {
			if !reflect.DeepEqual(want.Levels[i], got.Levels[i]) {
				t.Fatalf("v%d/%s: MSPBFS levels diverge for source %d",
					snap.Version(), dir.name, sources[i])
			}
		}
		for _, repr := range []core.StateRepr{core.BitState, core.ByteState} {
			w := core.SMSPBFS(oracle, sources[0], repr, opt)
			g := core.SMSPBFS(snapInternal(snap), sources[0], repr, snapOpt)
			if !reflect.DeepEqual(w.Levels, g.Levels) {
				t.Fatalf("v%d/%s: SMSPBFS(byte=%v) levels diverge", snap.Version(), dir.name, repr == core.ByteState)
			}
		}
	}
	wantSeq := core.ReferenceLevels(oracle, sources[0])
	gotSeq := core.ReferenceLevelsOverlay(snapInternal(snap), snap.v.ov, sources[0])
	if !reflect.DeepEqual(wantSeq, gotSeq) {
		t.Fatalf("v%d: sequential levels diverge", snap.Version())
	}
}

// FuzzApplyEdges drives a DynGraph with a fuzzer-chosen schedule of edge
// batches and compactions, pinning a snapshot at every published version
// and proving each one equal to a from-scratch rebuild. The byte stream is
// an op tape: triples (op, a, b) where op%8 buffers an edge (a%n, b%n)
// — self-loops and duplicates included, exercising the dedup path —
// op%8==5|7 flushes the buffered batch through ApplyEdges, and op%8==6
// flushes then compacts. The test independently recomputes which edges
// each batch should accept, so dedup accounting is oracle-checked too.
func FuzzApplyEdges(f *testing.F) {
	f.Add([]byte("\x10" + "\x00\x01\x02" + "\x00\x03\x04" + "\x05\x00\x00" + "\x00\x05\x06" + "\x06\x00\x00"))
	f.Add([]byte("A" + "abcabdabe" + "faa" + "agh" + "eaa"))            // dup-heavy with compact
	f.Add([]byte("\x02" + "\x00\x01\x01" + "\x05\x00\x00"))             // self-loop only batch
	f.Add([]byte("0" + "011022033044055066077" + "500" + "600" + "7a")) // chain then compact
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 16 + int(data[0]%64)
		d := New(msbfs.NewGraph(n, nil), Config{})
		defer d.Close()

		type pin struct {
			snap    *Snapshot
			visible []graph.Edge
		}
		var pins []pin
		defer func() {
			for _, p := range pins {
				p.snap.Release()
			}
		}()

		seen := map[[2]graph.VertexID]bool{}
		var visible []graph.Edge
		var batch []graph.Edge

		flush := func() {
			if len(batch) == 0 {
				return
			}
			// Recompute expected acceptance independently of the library.
			wantAccept := 0
			inBatch := map[[2]graph.VertexID]bool{}
			for _, e := range batch {
				u, v := e.U, e.V
				if u == v {
					continue
				}
				if u > v {
					u, v = v, u
				}
				key := [2]graph.VertexID{u, v}
				if seen[key] || inBatch[key] {
					continue
				}
				inBatch[key] = true
				wantAccept++
			}
			res, err := d.ApplyEdges(batch)
			batch = batch[:0]
			if err != nil {
				t.Fatalf("ApplyEdges: %v", err)
			}
			if res.Accepted != wantAccept {
				t.Fatalf("accepted %d, oracle says %d", res.Accepted, wantAccept)
			}
			for key := range inBatch {
				seen[key] = true
				visible = append(visible, graph.Edge{U: key[0], V: key[1]})
			}
			if res.Accepted > 0 && len(pins) < 32 {
				snap, err := d.AcquireVersion(res.Version)
				if err != nil {
					t.Fatalf("pin v%d: %v", res.Version, err)
				}
				pins = append(pins, pin{snap, append([]graph.Edge(nil), visible...)})
			}
		}

		ops := 0
		for i := 1; i+2 < len(data) && ops < 96; i, ops = i+3, ops+1 {
			op, a, b := data[i], data[i+1], data[i+2]
			switch op % 8 {
			case 5, 7:
				flush()
			case 6:
				flush()
				if _, err := d.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
			default:
				batch = append(batch, graph.Edge{
					U: graph.VertexID(int(a) % n),
					V: graph.VertexID(int(b) % n),
				})
			}
		}
		flush()

		sources := []int{0, n - 1}
		for _, p := range pins {
			checkOracleAllKernels(t, p.snap, n, p.visible, sources)
		}
		// Every pinned version must survive one more compaction untouched.
		if _, err := d.Compact(); err != nil {
			t.Fatalf("final compact: %v", err)
		}
		for _, p := range pins {
			checkOracleAllKernels(t, p.snap, n, p.visible, sources)
		}
	})
}

// referenceCompact is the build Compact used before it became a row merge,
// kept as its oracle: the base's edge list re-extracted, the uncompacted
// log appended, one FromEdges over both.
func referenceCompact(d *DynGraph) *graph.Graph {
	d.mu.Lock()
	defer d.mu.Unlock()
	edges := d.cur.gen.base.Edges()
	for _, le := range d.log {
		edges = append(edges, graph.Edge{U: le.u, V: le.v})
	}
	return graph.FromEdges(d.n, edges)
}

// compactAndCheck compacts and holds the new generation's CSR to the
// reference build, byte for byte.
func compactAndCheck(t *testing.T, d *DynGraph) {
	t.Helper()
	want := referenceCompact(d)
	if _, err := d.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	got := d.cur.gen.base
	if err := got.Validate(); err != nil {
		t.Fatalf("compacted CSR: %v", err)
	}
	if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adjacency, want.Adjacency) {
		t.Fatalf("compacted CSR differs from FromEdges(base edges + log)")
	}
	if st := d.Stats(); st.DeltaArcs != 0 || st.DeltaEdges != 0 || st.PinnedNow != 0 {
		t.Fatalf("after compaction: %+v", st)
	}
}

// FuzzCompact: bytes become a base graph plus a schedule of ingest batches
// and compactions; every compaction's CSR must be exactly what FromEdges
// builds from the previous base's edges plus the accepted log. data[0]
// sizes the vertex range, data[1] the base's share of the pairs that
// follow; among the rest a pair (0xff, _) flushes the buffered batch and
// (0xfe, _) flushes and compacts.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0})
	f.Add([]byte{0, 9, 0, 0, 0xfe, 0})                                        // n = 1: nothing but self-loops
	f.Add([]byte{9, 2, 0, 1, 1, 2, 2, 3, 3, 0, 0xff, 0, 0, 2, 2, 0, 0xfe, 0}) // dup of base, swapped dup
	f.Add([]byte("\x40\x03abbccdaxayaz\xff\x00bxbybz\xfe\x00cxcy\xff\x00cz")) // hub rows grow across compactions
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%64 + 1
		pairs := data[2:]
		edge := func(i int) graph.Edge {
			return graph.Edge{U: graph.VertexID(int(pairs[2*i]) % n), V: graph.VertexID(int(pairs[2*i+1]) % n)}
		}
		nBase := min(int(data[1]), len(pairs)/2)
		var base, batch []graph.Edge
		for i := 0; i < nBase; i++ {
			base = append(base, edge(i))
		}
		d := New(msbfs.NewGraph(n, base), Config{})
		defer d.Close()
		flush := func() {
			if _, err := d.ApplyEdges(batch); err != nil {
				t.Fatalf("ApplyEdges: %v", err)
			}
			batch = batch[:0]
		}
		for i := nBase; i < len(pairs)/2; i++ {
			switch pairs[2*i] {
			case 0xff:
				flush()
			case 0xfe:
				flush()
				compactAndCheck(t, d)
			default:
				batch = append(batch, edge(i))
			}
		}
		flush()
		compactAndCheck(t, d)
	})
}
