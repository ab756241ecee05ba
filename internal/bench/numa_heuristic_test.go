package bench

import (
	"testing"

	"repro/internal/obs"
)

// TestNUMAAccessesModel pins the locality model on hand-built flight
// records, one level shape per case.
func TestNUMAAccessesModel(t *testing.T) {
	// The MS-PBFS kernel's active prefix ends short of n: the resolve
	// sweeps only [0, 7000).
	ms := numaKernel{n: 8192, active: 7000, split: 512, pageVertices: 512, bottomUpPages: true}
	sms := numaKernel{n: 16384, active: 16384, split: 4096, pageVertices: 4096}
	cases := []struct {
		name          string
		k             numaKernel
		it            obs.IterationRecord
		local, remote int64
		wantErr       bool
	}{
		{
			// Scatter and apply: 100 local edge writes; owner 0 applies 3
			// entries, owner 1 applies 5: 8 local appends, 8 remote reads;
			// resolve: 3 steals, 1 of them in the scatter, so 2 stolen
			// tasks.
			name: "top-down applies on both owners with resolve steals", k: ms,
			it: obs.IterationRecord{ScannedEdges: 100, MergeWords: 8, WorkerMergeWords: []int64{3, 5},
				WorkerTasks: []int64{25, 25}, WorkerSteals: []int64{2, 1}, ScatterSteals: 1},
			local: 100 + 8 + 7000 - 2*512, remote: 8 + 2*512,
		},
		{
			name: "bottom-up steals charged per page (MS-PBFS)", k: ms,
			it:    obs.IterationRecord{BottomUp: true, WorkerTasks: []int64{10, 6}, WorkerSteals: []int64{0, 2}},
			local: 14, remote: 2,
		},
		{
			name: "bottom-up steals charged per element (SMS-PBFS)", k: sms,
			it:    obs.IterationRecord{BottomUp: true, WorkerTasks: []int64{3, 1}, WorkerSteals: []int64{1, 0}},
			local: 3 * 4096, remote: 4096,
		},
		{
			name: "scatter-only steals stay local", k: ms,
			it: obs.IterationRecord{ScannedEdges: 40, WorkerMergeWords: []int64{0, 0},
				WorkerTasks: []int64{25, 25}, WorkerSteals: []int64{1, 1}, ScatterSteals: 2},
			local: 40 + 7000,
		},
		{
			name: "n/2 not a whole number of tasks", k: numaKernel{n: 8704, split: 512, pageVertices: 512},
			wantErr: true,
		},
		{
			name: "split not a whole number of pages", k: numaKernel{n: 16384, split: 512, pageVertices: 4096},
			wantErr: true,
		},
	}
	for _, c := range cases {
		l, r, err := c.k.accesses(obs.Traversal{Iterations: []obs.IterationRecord{c.it}})
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: no precondition error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if l != c.local || r != c.remote {
			t.Errorf("%s: local/remote %d/%d, want %d/%d", c.name, l, r, c.local, c.remote)
		}
	}
}

// TestNUMALocalityPinnedCounts pins the stealing-off totals of the
// flight-record model on quickCfg (scale 15, seed 1, two workers): with
// stealing off the only remote accesses are the stripe owners' reads of
// the other worker's inbox entries. Every sweep covers the graph's active
// prefix (24,060 of 32,768 vertices): a bottom-up level is charged per
// task, 47 of the 64 MS-PBFS pages and 6 of the 8 SMS-PBFS tasks, and a
// top-down resolve 24,060 vertices.
func TestNUMALocalityPinnedCounts(t *testing.T) {
	res, err := NUMALocality(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int64{"MS-PBFS": {52603, 527}, "SMS-PBFS": {170827, 30}}
	for _, r := range res.Rows {
		if r.Stealing {
			continue
		}
		if got := [2]int64{r.Local, r.Remote}; got != want[r.Algorithm] {
			t.Errorf("%s stealing off: local/remote %d/%d, want %d/%d",
				r.Algorithm, got[0], got[1], want[r.Algorithm][0], want[r.Algorithm][1])
		}
		delete(want, r.Algorithm)
	}
	if len(want) != 0 {
		t.Errorf("no stealing-off row for %v", want)
	}
}
