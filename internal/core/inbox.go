package core

import (
	"repro/internal/graph"
	"repro/internal/sched"
)

// The top-down scatter → apply protocol (DESIGN.md §10). The vertex space
// is cut into one contiguous stripe per worker at the task layout's
// word-aligned borders, and between barriers every canonical next word has
// exactly one writer: its stripe's owner.
//
//   - Scatter (stealing as usual): worker w cuts each frontier vertex's
//     ascending neighbor list at the stripe borders, writes the segment in
//     its own stripe straight into next, and appends the vertex id once to
//     inbox[w][s] for every other stripe s the list reaches.
//   - Apply (static, one task per non-empty stripe): owner s walks every
//     inbox[*][s], binary-searches each vertex's segment inside its
//     stripe, writes it into next and truncates the inbox, so the apply is
//     also the scrub.
//
// Plain stores throughout, and each arc is counted in scanned once, by the
// worker that writes it. At one worker every segment is the worker's own:
// there are no inboxes and no apply phase. An entry is a 4-byte vertex id,
// and a level queues at most Σ min(degree, workers−1) of them over its
// frontier vertices.

// inbox is one worker's outgoing entries: to[s] lists the frontier vertices
// whose neighbor lists reach stripe s. The capacity stays with the shell.
//
//bfs:perworker
type inbox struct {
	to [][]graph.VertexID
	_  [40]byte
}

// initInboxes lays out, above one worker, the per-worker inboxes over the
// shell's non-empty stripes and the apply's layout: each such stripe whole,
// as one task in its owner's queue.
func (ls *levelStep) initInboxes() {
	ls.applied = make([]padCounter, ls.stripes.Parts())
	if ls.stripes.Parts() == 1 {
		return
	}
	active, per := ls.stripes.N(), ls.stripes.Per()
	stripes := (active + per - 1) / per // the non-empty ones
	ls.applyTq = sched.CreateStripeTasks(ls.stripes, max(active, 1))
	ls.inboxes = make([]inbox, ls.stripes.Parts())
	for w := range ls.inboxes {
		ls.inboxes[w].to = make([][]graph.VertexID, stripes)
	}
}

// memoryBytes is the shell's size: the kernel's arrays and scratch plus
// the inboxes' headers and entry capacity, which grow with the runs the
// shell serves.
func (ls *levelStep) memoryBytes() int64 {
	b := ls.stateBytes + int64(len(ls.inboxes))*64
	for _, ib := range ls.inboxes {
		b += int64(cap(ib.to)) * 24
		for _, box := range ib.to {
			b += int64(cap(box)) * 4
		}
	}
	return b
}

// inboxesEmpty reports whether no inbox holds an entry: the invariant
// outside a scatter → apply window.
func (ls *levelStep) inboxesEmpty() bool {
	for _, ib := range ls.inboxes {
		for _, box := range ib.to {
			if len(box) != 0 {
				return false
			}
		}
	}
	return true
}

// clearInboxes truncates every inbox. The apply leaves them empty; this
// covers a run that ended inside the window (a panic in a phase body).
func (ls *levelStep) clearInboxes() {
	for _, ib := range ls.inboxes {
		for s := range ib.to {
			ib.to[s] = ib.to[s][:0]
		}
	}
}

// crosses reports whether the ascending list leaves [lo, hi). A list that
// does not — every list at one worker — is the scatter's to write whole;
// one that does goes through cutAcross.
func crosses(list []graph.VertexID, lo, hi int) bool {
	n := len(list)
	return n > 0 && (int(list[0]) < lo || int(list[n-1]) >= hi)
}

// cutAcross returns the part of v's ascending list that lies in worker
// workerID's stripe, which the kernel's scatter writes next, and queues v
// for the owners of the other stripes the list reaches: a binary search at
// each stripe border the list crosses, and one inbox append per foreign
// stripe. An inbox whose last entry is already v is not appended to again,
// so a vertex whose CSR row and overlay list reach the same stripe is
// applied there once.
//
//bfs:nocas
func (ls *levelStep) cutAcross(workerID, v int, list []graph.VertexID) []graph.VertexID {
	to := ls.inboxes[workerID].to
	last := int(list[len(list)-1])
	var own []graph.VertexID
	//bfs:hot row cut: runs per stripe a frontier vertex's list reaches
	for i := 0; i < len(list); {
		s := ls.stripes.Owner(int(list[i])) //bfs:bounds-ok i < len(list) by the loop condition
		end := len(list)
		if border := (s + 1) * ls.stripes.Per(); last >= border {
			end = searchFrom(list, i+1, border) //bfs:bounds-ok inlined binary search; h < len(list) by its loop bounds
		}
		if s == workerID {
			own = list[i:end] //bfs:bounds-ok searchFrom returns an index in [i+1, len(list)]
		} else if box := to[s]; len(box) == 0 || int(box[len(box)-1]) != v { //bfs:bounds-ok s < stripes: list entries are below the active prefix
			to[s] = append(box, graph.VertexID(v)) //bfs:alloc-ok grows the shell's inbox capacity, which later runs reuse
		}
		i = end
	}
	return own
}

// applyTask is the apply for the stripe workerID owns (static fetch: r is
// that whole stripe). It writes every queued vertex's segment inside the
// stripe into next through the kernel's spread and truncates the inboxes.
//
//bfs:nocas
//bfs:singlewriter the stripe owner is the only writer of its next words and its inbox column during the apply
func (ls *levelStep) applyTask(workerID int, r sched.Range) {
	g, ov := ls.g, ls.opt.Overlay
	scanned := &ls.scanned[workerID]
	for w := range ls.inboxes {
		to := ls.inboxes[w].to
		box := to[workerID]
		//bfs:hot apply: runs per inbox entry per top-down level, must not allocate
		for _, v := range box {
			seg := segment(g.Neighbors(int(v)), r.Lo, r.Hi) //bfs:bounds-ok inlined CSR offset pair; offsets sized n+1 by Builder
			scanned.v += int64(len(seg))
			ls.spread(int(v), seg)
			if ov != nil {
				seg = segment(ov.Extra(int(v)), r.Lo, r.Hi) //bfs:bounds-ok inlined overlay page indexing; pages sized to cover n by NewOverlay
				scanned.v += int64(len(seg))
				ls.spread(int(v), seg)
			}
		}
		ls.applied[workerID].v += int64(len(box))
		to[workerID] = box[:0] //bfs:share-ok one header store per inbox per level, after its entries are applied
	}
}

// segment returns the part of the ascending list inside [lo, hi),
// searching only for the borders the list crosses.
func segment(list []graph.VertexID, lo, hi int) []graph.VertexID {
	a, b := 0, len(list)
	if b == 0 {
		return nil
	}
	if int(list[0]) < lo {
		a = searchFrom(list, 1, lo)
	}
	if int(list[b-1]) >= hi {
		b = searchFrom(list, a, hi)
	}
	return list[a:b]
}

// searchFrom returns the first index j >= i with list[j] >= x, or
// len(list).
func searchFrom(list []graph.VertexID, i, x int) int {
	j := len(list)
	for i < j {
		h := int(uint(i+j) >> 1)
		if int(list[h]) < x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}
