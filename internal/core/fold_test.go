package core

import (
	"slices"
	"testing"
)

// TestFold runs traversals into one reused Fold and checks every slot's
// tally and distance row against the oracle's levels. The cases run in
// order on the same fold, so each Reset — to a narrower batch, to fewer
// workers, to slots without the previous targets — must leave no stale
// tally or row behind.
func TestFold(t *testing.T) {
	g := Disconnected() // a path, a matching and isolated vertices: unreachable pairs
	shared := []int{0, 50, 99, 101, 250, 50}
	cases := []struct {
		name    string
		workers int
		sources []int
		radius  []int   // per slot; nil: -1 everywhere
		targets [][]int // per slot; nil: none
		share   bool    // every slot uses one index over shared
	}{
		{
			name: "slots share one index, duplicate target", workers: 3,
			sources: shared, share: true,
		},
		{
			name: "radius -1, 0 and k", workers: 2,
			sources: []int{10, 10, 10, 150, 220},
			radius:  []int{-1, 0, 3, 3, 0},
		},
		{
			name: "duplicate targets within one slot, beside an untargeted slot", workers: 1,
			sources: []int{5, 120},
			targets: [][]int{{7, 99, 7, 150, 5, 99}, nil},
			radius:  []int{2, -1},
		},
		{
			name: "narrower batch after targets and radii", workers: 2,
			sources: []int{60},
		},
		{
			name: "wider again, own targets per slot", workers: 3,
			sources: []int{0, 99, 200, 101, 30, 31, 32},
			targets: [][]int{{99}, {0, 0}, {200}, nil, {100, 101}, nil, {31}},
			radius:  []int{1, 98, 0, -1, 5, 5, 5},
		},
	}
	var f Fold
	for _, c := range cases {
		f.Reset(c.workers, len(c.sources))
		index := TargetIndex(shared)
		for i := range c.sources {
			if c.radius != nil {
				f.SetRadius(i, c.radius[i])
			}
			switch {
			case c.share:
				f.SetTargets(i, shared, index)
			case c.targets != nil && c.targets[i] != nil:
				f.SetTargets(i, c.targets[i], TargetIndex(c.targets[i]))
			}
		}
		MSPBFS(g, c.sources, Options{Workers: c.workers, OnVisit: f.Visit})

		for i, s := range c.sources {
			levels := ReferenceLevels(g, s)
			radius := -1
			if c.radius != nil {
				radius = c.radius[i]
			}
			var targets []int
			switch {
			case c.share:
				targets = shared
			case c.targets != nil:
				targets = c.targets[i]
			}
			var want Tally
			for _, d := range levels {
				if d == NoLevel {
					continue
				}
				want.Reached++
				want.DepthSum += int64(d)
				want.MaxDepth = max(want.MaxDepth, d)
				if radius >= 0 && int(d) <= radius {
					want.InRadius++
				}
			}
			if got := f.Tally(i); got != want {
				t.Errorf("%s: slot %d (source %d) tally %+v, want %+v", c.name, i, s, got, want)
			}
			var wantRow []int32
			for _, v := range targets {
				wantRow = append(wantRow, levels[v])
			}
			if got := f.Distances(i); !slices.Equal(got, wantRow) || (got == nil) != (wantRow == nil) {
				t.Errorf("%s: slot %d (source %d) distances %v, want %v", c.name, i, s, got, wantRow)
			}
		}
	}
}

// TestFoldRowsOutliveReset checks that a row handed out by Distances is the
// caller's: neither the next Reset nor the next traversal writes into it.
func TestFoldRowsOutliveReset(t *testing.T) {
	g := PathGraph(10)
	var f Fold
	f.Reset(1, 1)
	f.SetTargets(0, []int{3}, TargetIndex([]int{3}))
	MSPBFS(g, []int{0}, Options{OnVisit: f.Visit})
	row := f.Distances(0)
	f.Reset(1, 1)
	f.SetTargets(0, []int{3}, TargetIndex([]int{3}))
	MSPBFS(g, []int{9}, Options{OnVisit: f.Visit})
	if row[0] != 3 || f.Distances(0)[0] != 6 {
		t.Errorf("first row %v, second %v; want [3] and [6]", row, f.Distances(0))
	}
	f.Reset(0, 0)
	if s := f.slots[:1][0]; s.row != nil || s.index != nil || s.targets != nil {
		t.Error("Reset(0, 0) kept a reference to the last traversal's targets")
	}
}
