package dyngraph

import (
	"reflect"
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
	oracle := msbfs.NewGraph(n, visible)
	if got, want := snap.NumEdges(), oracle.NumEdges(); got != want {
		t.Fatalf("v%d: snapshot has %d edges, oracle %d", snap.Version(), got, want)
	}
	for _, dir := range []struct {
		name   string
		td, bu bool
	}{{"auto", false, false}, {"topdown", true, false}, {"bottomup", false, true}} {
		opt := msbfs.Options{Workers: 2, RecordLevels: true, TopDownOnly: dir.td, BottomUpOnly: dir.bu}
		snapOpt := opt
		snapOpt.Overlay = snap.Overlay()

		want := oracle.MultiBFS(sources, opt)
		got := snap.Graph().MultiBFS(sources, snapOpt)
		for i := range sources {
			if !reflect.DeepEqual(want.Levels[i], got.Levels[i]) {
				t.Fatalf("v%d/%s: MultiBFS levels diverge for source %d",
					snap.Version(), dir.name, sources[i])
			}
		}
		for _, byteState := range []bool{false, true} {
			o1, o2 := opt, snapOpt
			o1.ByteState, o2.ByteState = byteState, byteState
			w := oracle.BFS(sources[0], o1)
			g := snap.Graph().BFS(sources[0], o2)
			if !reflect.DeepEqual(w.Levels, g.Levels) {
				t.Fatalf("v%d/%s: BFS(byte=%v) levels diverge", snap.Version(), dir.name, byteState)
			}
		}
	}
	wantSeq := oracle.SequentialBFS(sources[0])
	gotSeq := core.ReferenceLevelsOverlay(snapInternal(snap), snap.v.ov, sources[0])
	if !reflect.DeepEqual(wantSeq.Levels, gotSeq) {
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
		d := New(msbfs.NewGraph(n, nil), Config{Retain: 128})
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
