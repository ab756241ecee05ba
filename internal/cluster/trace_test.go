package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"

	msbfs "repro"
	"repro/internal/obs"
)

// clusterSteps digs the merged shard-step records of the most recent
// cluster traversal out of a tracer snapshot.
func clusterSteps(t *testing.T, tracer *obs.Tracer) []obs.ShardStep {
	t.Helper()
	snap := tracer.Snapshot()
	for i := len(snap.Traversals) - 1; i >= 0; i-- {
		if tv := snap.Traversals[i]; tv.Algo == "cluster/ms-pbfs" {
			return tv.ShardSteps
		}
	}
	t.Fatal("no cluster/ms-pbfs traversal in the tracer snapshot")
	return nil
}

// TestTracedClusterQueryCollectsShardSteps runs a traced query over a
// 4-shard cluster and checks the coordinator merged one clock-aligned
// record per (level, shard) out of the piggybacked step replies.
func TestTracedClusterQueryCollectsShardSteps(t *testing.T) {
	const shards = 4
	g := msbfs.GenerateKronecker(10, 8, 7)
	sources := g.RandomSources(5, 11)

	tracer := obs.NewTracer()
	ip := startCluster(t, shards, CoordinatorOptions{Tracer: tracer})
	rg, err := ip.Coord.LoadGraph(context.Background(), "traced", g, 2)
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	if _, err := rg.RunBatch(context.Background(), sources, msbfs.Options{Workers: 2}, nil); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}

	steps := clusterSteps(t, tracer)
	if len(steps) == 0 {
		t.Fatal("traced cluster query recorded no shard steps")
	}
	if len(steps)%shards != 0 {
		t.Fatalf("%d shard steps is not a multiple of %d shards", len(steps), shards)
	}
	lastLevel := make(map[int]int) // shard -> last seen level
	for i, st := range steps {
		if st.Shard < 0 || st.Shard >= shards {
			t.Fatalf("step %d: shard %d out of range", i, st.Shard)
		}
		if st.ReqSent.IsZero() || st.ReplyRecv.Before(st.ReqSent) {
			t.Fatalf("step %d: RPC window [%v, %v] is not ordered", i, st.ReqSent, st.ReplyRecv)
		}
		// The aligned shard work must nest inside the coordinator's RPC
		// window — that is the whole clock-alignment contract.
		start := st.AlignedStart()
		if start.Before(st.ReqSent) || start.Add(st.ShardDuration()).After(st.ReplyRecv) {
			t.Fatalf("step %d: aligned span [%v +%v] escapes the RPC window [%v, %v]",
				i, start, st.ShardDuration(), st.ReqSent, st.ReplyRecv)
		}
		for _, d := range []int64{int64(st.Scan), int64(st.Encode), int64(st.Send),
			int64(st.Wait), int64(st.Decode), int64(st.Apply)} {
			if d < 0 {
				t.Fatalf("step %d: negative phase duration %d", i, d)
			}
		}
		if last, seen := lastLevel[st.Shard]; seen && st.Level != last+1 {
			t.Fatalf("shard %d: level %d follows level %d", st.Shard, st.Level, last)
		}
		lastLevel[st.Shard] = st.Level
	}
	for s := 0; s < shards; s++ {
		if _, ok := lastLevel[s]; !ok {
			t.Errorf("no steps recorded for shard %d", s)
		}
	}
}

// TestTracedClusterMatchesUntraced pins that turning tracing on changes
// nothing about the answer: byte-identical level rows and identical
// visited-state counts from the same query on traced and untraced
// clusters.
func TestTracedClusterMatchesUntraced(t *testing.T) {
	g := msbfs.GenerateKronecker(10, 8, 7)
	sources := g.RandomSources(6, 23)
	opt := msbfs.Options{Workers: 2, RecordLevels: true}

	run := func(coordOpt CoordinatorOptions) *msbfs.MultiResult {
		ip := startCluster(t, 3, coordOpt)
		rg, err := ip.Coord.LoadGraph(context.Background(), "same", g, 2)
		if err != nil {
			t.Fatalf("LoadGraph: %v", err)
		}
		res, err := rg.RunBatch(context.Background(), sources, opt, nil)
		if err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		return res
	}

	plain := run(CoordinatorOptions{})
	traced := run(CoordinatorOptions{Tracer: obs.NewTracer()})

	if plain.VisitedStates != traced.VisitedStates {
		t.Errorf("VisitedStates: untraced %d, traced %d", plain.VisitedStates, traced.VisitedStates)
	}
	if len(plain.Levels) != len(traced.Levels) {
		t.Fatalf("level rows: untraced %d, traced %d", len(plain.Levels), len(traced.Levels))
	}
	for i := range plain.Levels {
		for v := range plain.Levels[i] {
			if plain.Levels[i][v] != traced.Levels[i][v] {
				t.Fatalf("source %d vertex %d: untraced level %d, traced %d",
					i, v, plain.Levels[i][v], traced.Levels[i][v])
			}
		}
	}
}

// TestUntracedWireBytesUnchanged pins the zero-cost-when-off wire
// contract: without a trace id the msgStart payload is byte-identical to
// the pre-tracing layout, and an untraced step reply carries exactly the
// three legacy counters.
func TestUntracedWireBytesUnchanged(t *testing.T) {
	sources := []int{3, 64, 4095}

	// Legacy msgStart layout: qid, name, k, sources — nothing else.
	legacy := binary.AppendUvarint(nil, 42)
	legacy = appendStr(legacy, "g")
	legacy = binary.AppendUvarint(legacy, uint64(len(sources)))
	for _, s := range sources {
		legacy = binary.AppendUvarint(legacy, uint64(s))
	}
	if got := encodeStart(42, "g", sources, 0, true); !bytes.Equal(got, legacy) {
		t.Errorf("untraced encodeStart = %x, want legacy %x", got, legacy)
	}
	traced := encodeStart(42, "g", sources, 99, true)
	if len(traced) <= len(legacy) {
		t.Errorf("traced encodeStart is %d bytes, legacy %d: trace id missing", len(traced), len(legacy))
	}
	m, err := decodeStart(traced)
	if err != nil || m.traceID != 99 {
		t.Errorf("decodeStart(traced): traceID=%d err=%v, want 99", m.traceID, err)
	}
	m, err = decodeStart(legacy)
	if err != nil || m.traceID != 0 {
		t.Errorf("decodeStart(legacy): traceID=%d err=%v, want 0", m.traceID, err)
	}

	// Legacy stepDone layout: the three counters only.
	legacyDone := binary.AppendUvarint(nil, 7)
	legacyDone = binary.AppendUvarint(legacyDone, 100)
	legacyDone = binary.AppendUvarint(legacyDone, 300)
	plain := stepDone{nextStates: 7, sentBytes: 100, rawBytes: 300}
	if got := encodeStepDone(plain); !bytes.Equal(got, legacyDone) {
		t.Errorf("untraced encodeStepDone = %x, want legacy %x", got, legacyDone)
	}
	d, err := decodeStepDone(legacyDone, false)
	if err != nil || d.trace != nil {
		t.Errorf("decodeStepDone(legacy): trace=%v err=%v, want nil trace", d.trace, err)
	}

	// A traced reply appends the six phase times, then scanned and frontier.
	withTrace := plain
	withTrace.trace = &stepTrace{scanNanos: 1, encodeNanos: 2, sendNanos: 3,
		waitNanos: 4, decodeNanos: 5, applyNanos: 6, scanned: 7, frontier: 8}
	tracedDone := append([]byte(nil), legacyDone...)
	for v := uint64(1); v <= 8; v++ {
		tracedDone = binary.AppendUvarint(tracedDone, v)
	}
	if got := encodeStepDone(withTrace); !bytes.Equal(got, tracedDone) {
		t.Errorf("traced encodeStepDone = %x, want %x", got, tracedDone)
	}
	d, err = decodeStepDone(encodeStepDone(withTrace), false)
	if err != nil || d.trace == nil {
		t.Fatalf("decodeStepDone(traced): trace=%v err=%v", d.trace, err)
	}
	if *d.trace != *withTrace.trace {
		t.Errorf("step trace round-trip = %+v, want %+v", *d.trace, *withTrace.trace)
	}
}

// TestTracedClusterConcurrentStress drives wide traced batches through a
// 4-shard cluster from several goroutines at once. Its real assertions
// run under -race (see `make cluster-test`): the per-step record slots
// written by the coordinator's fan-out goroutines and the shard-side
// phase stamps must never conflict.
func TestTracedClusterConcurrentStress(t *testing.T) {
	const shards = 4
	g := msbfs.GenerateKronecker(9, 8, 3)
	// 128 sources with BatchWords=1 split into two sequential 64-wide
	// cluster batches per RunBatch, so every goroutine exercises the
	// trace plumbing across batch boundaries too.
	sources := g.RandomSources(128, 7)

	tracer := obs.NewTracer()
	ip := startCluster(t, shards, CoordinatorOptions{Tracer: tracer})
	rg, err := ip.Coord.LoadGraph(context.Background(), "stress", g, 2)
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rg.RunBatch(context.Background(), sources,
				msbfs.Options{Workers: 2, BatchWords: 1}, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("RunBatch %d: %v", i, err)
		}
	}

	snap := tracer.Snapshot()
	var traversals, steps int
	for _, tv := range snap.Traversals {
		if tv.Algo != "cluster/ms-pbfs" {
			continue
		}
		traversals++
		steps += len(tv.ShardSteps)
		if len(tv.ShardSteps)%shards != 0 {
			t.Errorf("traversal %d: %d shard steps not a multiple of %d", tv.ID, len(tv.ShardSteps), shards)
		}
	}
	// 4 goroutines x 2 sequential 64-wide batches each.
	if traversals != 8 {
		t.Errorf("recorded %d cluster traversals, want 8", traversals)
	}
	if steps == 0 {
		t.Error("stress run recorded no shard steps")
	}
}
