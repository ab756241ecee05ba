package numa

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

func TestTopologyRegionOf(t *testing.T) {
	topo := Topology{Sockets: 4, WorkersPerSocket: 15}
	if topo.Workers() != 60 {
		t.Fatalf("Workers = %d", topo.Workers())
	}
	cases := []struct{ w, region int }{
		{0, 0}, {14, 0}, {15, 1}, {29, 1}, {30, 2}, {45, 3}, {59, 3},
		{99, 3}, // clamped
	}
	for _, c := range cases {
		if got := topo.RegionOf(c.w); got != c.region {
			t.Errorf("RegionOf(%d) = %d, want %d", c.w, got, c.region)
		}
	}
}

func TestSingleSocket(t *testing.T) {
	topo := SingleSocket(8)
	if topo.Sockets != 1 || topo.RegionOf(7) != 0 {
		t.Error("SingleSocket misconfigured")
	}
}

func TestSplit(t *testing.T) {
	topo := Split(10, 4)
	if topo.Sockets != 4 || topo.WorkersPerSocket != 3 {
		t.Errorf("Split(10,4) = %+v", topo)
	}
	if Split(4, 0).Sockets != 1 {
		t.Error("Split with 0 sockets should fall back to 1")
	}
}

func TestPageMapPlacement(t *testing.T) {
	// 2 sockets x 1 worker; 8192 vertices of 8 bytes = 16 pages;
	// task size 512 vertices = 1 page per task, dealt round robin.
	topo := Topology{Sockets: 2, WorkersPerSocket: 1}
	tq := sched.CreateTasks(8192, 512, 2)
	m := NewPageMap(topo, 8192, 8)
	if m.NumPages() != 16 {
		t.Fatalf("NumPages = %d, want 16", m.NumPages())
	}
	counts := m.PlaceFirstTouch(tq)
	if counts[0] != 8 || counts[1] != 8 {
		t.Errorf("page counts = %v, want [8 8]", counts)
	}
	// Task ranges alternate between workers: pages must alternate regions.
	for pg := 0; pg < 16; pg++ {
		want := pg % 2
		v := pg * 512
		if m.OwnerOfElem(v) != want {
			t.Errorf("page %d owned by %d, want %d", pg, m.OwnerOfElem(v), want)
		}
	}
}

func TestPageMapProportionalShare(t *testing.T) {
	// The paper: memory share per region is proportional to its thread
	// share. 3 workers on socket 0, 1 on socket 1 (via WorkersPerSocket=2,
	// 2 sockets, 4 workers).
	topo := Topology{Sockets: 2, WorkersPerSocket: 2}
	tq := sched.CreateTasks(512*40, 512, 4)
	m := NewPageMap(topo, 512*40, 8)
	counts := m.PlaceFirstTouch(tq)
	// Workers 0,1 -> region 0; workers 2,3 -> region 1: expect a 50/50
	// split of the 40 pages.
	if counts[0] != counts[1] {
		t.Errorf("page counts = %v, want even split", counts)
	}
}

func TestTrackerAccounting(t *testing.T) {
	topo := Topology{Sockets: 2, WorkersPerSocket: 1}
	tq := sched.CreateTasks(8192, 512, 2)
	m := NewPageMap(topo, 8192, 8)
	m.PlaceFirstTouch(tq)
	tr := NewTracker(topo)

	// Worker 0 accessing its own first task range: local.
	tr.RecordRange(m, 0, 0, 512)
	l, r := tr.Totals()
	if l != 1 || r != 0 {
		t.Errorf("local access misaccounted: local=%d remote=%d", l, r)
	}
	// Worker 0 accessing worker 1's range: remote.
	tr.RecordRange(m, 0, 512, 1024)
	l, r = tr.Totals()
	if l != 1 || r != 1 {
		t.Errorf("remote access misaccounted: local=%d remote=%d", l, r)
	}
	if ratio := tr.LocalityRatio(); ratio != 0.5 {
		t.Errorf("LocalityRatio = %v, want 0.5", ratio)
	}
	tr.RecordRangeElems(m, 1, 513, 514)
	l, _ = tr.Totals()
	if l != 2 {
		t.Error("RecordRangeElems local access misaccounted")
	}
	if !strings.Contains(tr.String(), "local=2") {
		t.Errorf("String() = %q", tr.String())
	}
	tr.Reset()
	if ratio := tr.LocalityRatio(); ratio != 1 {
		t.Errorf("after Reset LocalityRatio = %v, want 1", ratio)
	}
}

func TestTrackerEmptyRange(t *testing.T) {
	topo := SingleSocket(1)
	m := NewPageMap(topo, 100, 8)
	tr := NewTracker(topo)
	tr.RecordRange(m, 0, 5, 5)
	if l, r := tr.Totals(); l != 0 || r != 0 {
		t.Error("empty range recorded accesses")
	}
}

func TestPageMapPanicsOnBadElemSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPageMap with elemBytes 0 did not panic")
		}
	}()
	NewPageMap(SingleSocket(1), 10, 0)
}

func TestBFSLocalityInvariant(t *testing.T) {
	// The paper's key claim (Section 4.4): with pages placed at task-range
	// borders and no stealing, every worker's task-range accesses are
	// region-local. Simulate a full static pass.
	topo := Topology{Sockets: 2, WorkersPerSocket: 2}
	const n, split = 512 * 64, 512
	tq := sched.CreateTasks(n, split, topo.Workers())
	m := NewPageMap(topo, n, 8)
	m.PlaceFirstTouch(tq)
	tr := NewTracker(topo)
	for w := 0; w < topo.Workers(); w++ {
		for _, r := range tq.WorkerTasks(w) {
			tr.RecordRange(m, w, r.Lo, r.Hi)
		}
	}
	if ratio := tr.LocalityRatio(); ratio != 1 {
		t.Errorf("static pass locality = %v, want 1.0 (all accesses local)", ratio)
	}
}

func TestStealOrder(t *testing.T) {
	topo := Topology{Sockets: 2, WorkersPerSocket: 2}
	order := StealOrder(topo)
	if len(order) != 4 {
		t.Fatalf("order for %d workers", len(order))
	}
	for w, perm := range order {
		if perm[0] != w {
			t.Errorf("worker %d order starts at %d", w, perm[0])
		}
		seen := make([]bool, 4)
		for _, q := range perm {
			if q < 0 || q >= 4 || seen[q] {
				t.Fatalf("worker %d order %v not a permutation", w, perm)
			}
			seen[q] = true
		}
		// Same-region victims must come before remote ones.
		region := topo.RegionOf(w)
		crossed := false
		for _, q := range perm[1:] {
			if topo.RegionOf(q) != region {
				crossed = true
			} else if crossed {
				t.Errorf("worker %d order %v visits a remote queue before a local one", w, perm)
			}
		}
	}
	// Worker 0 (region 0) must prefer worker 1 (region 0) over 2 and 3.
	if order[0][1] != 1 {
		t.Errorf("worker 0 order = %v, want worker 1 as first victim", order[0])
	}
}

func TestProportionalMemoryShareAsymmetric(t *testing.T) {
	// The paper: "If 8 threads are located in NUMA region 0 and 2 threads
	// in region 1, 80% of the memory ... [is] in region 0 and 20% in
	// region 1." Model: 5 workers over asymmetric regions via a custom
	// check — 4 workers region 0, 1 worker region 1 is not expressible
	// with the rectangular Topology, so use 2 regions x 2 workers and
	// verify the 50/50 share, plus a 4x1 split for 4/5 vs 1/5 ... the
	// rectangular model gives equal shares per region, matching the
	// equal-thread-share case of the paper's formula.
	topo := Topology{Sockets: 4, WorkersPerSocket: 1}
	tq := sched.CreateTasks(512*40, 512, topo.Workers())
	m := NewPageMap(topo, 512*40, 8)
	counts := m.PlaceFirstTouch(tq)
	for r, c := range counts {
		if c != 10 {
			t.Errorf("region %d holds %d pages, want 10 (proportional share)", r, c)
		}
	}
}

func TestAlignedRanges(t *testing.T) {
	cases := []struct {
		n, parts, stride int
	}{
		{1000, 4, 64}, {1000, 1, 64}, {64, 4, 64}, {10, 4, 64},
		{0, 4, 64}, {1 << 16, 3, 64}, {513, 2, 512}, {7, 0, 0},
	}
	for _, c := range cases {
		b := AlignedRanges(c.n, c.parts, c.stride)
		parts, stride := c.parts, c.stride
		if parts < 1 {
			parts = 1
		}
		if stride < 1 {
			stride = 1
		}
		if len(b) != parts+1 {
			t.Fatalf("AlignedRanges(%d,%d,%d): %d boundaries, want %d", c.n, c.parts, c.stride, len(b), parts+1)
		}
		if b[0] != 0 || b[parts] != c.n {
			t.Fatalf("AlignedRanges(%d,%d,%d) = %v: must span [0, n]", c.n, c.parts, c.stride, b)
		}
		for i := 1; i <= parts; i++ {
			if b[i] < b[i-1] {
				t.Fatalf("AlignedRanges(%d,%d,%d) = %v: boundary %d decreases", c.n, c.parts, c.stride, b, i)
			}
			if b[i] != c.n && b[i]%stride != 0 {
				t.Fatalf("AlignedRanges(%d,%d,%d) = %v: interior boundary %d not stride-aligned", c.n, c.parts, c.stride, b, b[i])
			}
		}
	}
}

func TestTrackerShadowAccounting(t *testing.T) {
	topo := Topology{Sockets: 2, WorkersPerSocket: 2}
	tr := NewTracker(topo)
	tr.RecordLocalN(1, 10)
	tr.RecordShadowMerge(0, 1, 5) // same socket: local
	tr.RecordShadowMerge(0, 2, 7) // cross socket: remote
	l, r := tr.Totals()
	if l != 15 || r != 7 {
		t.Fatalf("local/remote = %d/%d, want 15/7", l, r)
	}
}
