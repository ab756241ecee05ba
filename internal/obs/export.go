package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// WriteText renders the snapshot as a human-readable per-iteration table,
// the shape of the paper's Figure 6 discussion: one row per BFS level
// with direction, switch reason, frontier sizes, and work-stealing
// balance. Nil-safe: a nil tracer writes an "empty" marker.
func (t *Tracer) WriteText(w io.Writer) error {
	snap := t.Snapshot()
	if len(snap.Traversals) == 0 && len(snap.Spans) == 0 {
		_, err := fmt.Fprintln(w, "trace: empty")
		return err
	}
	if _, err := fmt.Fprintf(w, "trace: %d traversals, %d spans (dropped %d/%d)\n",
		len(snap.Traversals), len(snap.Spans),
		snap.DroppedTraversals, snap.DroppedSpans); err != nil {
		return err
	}
	for _, s := range snap.Spans {
		if _, err := fmt.Fprintf(w, "span %-16s %10s  %s\n",
			s.Name, fmtDur(s.Duration), s.Detail); err != nil {
			return err
		}
	}
	for i := range snap.Traversals {
		if err := writeTraversalText(w, &snap.Traversals[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeTraversalText(w io.Writer, tv *Traversal) error {
	if _, err := fmt.Fprintf(w, "\ntraversal #%d %s sources=%d total=%s\n",
		tv.ID, tv.Algo, tv.Sources, fmtDur(tv.End.Sub(tv.Start))); err != nil {
		return err
	}
	exchanged, merged := false, false
	for _, it := range tv.Iterations {
		if it.ExchangeRawBytes != 0 {
			exchanged = true
		}
		if it.MergeWords != 0 {
			merged = true
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "iter\tdir\treason\tfrontier\tnext\tscanned\tvisited\ttime\ttasks\tsteals\t")
	if merged {
		fmt.Fprint(tw, "mergew\t")
	}
	if exchanged {
		fmt.Fprint(tw, "xbytes\txratio\t")
	}
	fmt.Fprintln(tw)
	for _, it := range tv.Iterations {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t",
			it.Iteration, it.Direction(), it.Reason,
			it.FrontierVertices, it.UpdatedStates, it.ScannedEdges, it.Visited,
			fmtDur(it.Duration), it.Tasks(), it.Steals())
		if merged {
			fmt.Fprintf(tw, "%d\t", it.MergeWords)
		}
		if exchanged {
			fmt.Fprintf(tw, "%d\t%.3f\t", it.ExchangeBytes, it.CompressionRatio())
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	}
}

// chromeEvent is one Chrome trace-event ("Trace Event Format", the JSON
// chrome://tracing and Perfetto load). Only the complete-event ("X") and
// metadata ("M") phases are emitted.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace origin
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome pid layout: the tracer's own process renders as pid 1; a
// cluster traversal's shards render as one synthetic process each at
// pid shardPidBase+shard, so Perfetto draws one track group per shard.
const (
	chromePid    = 1
	shardPidBase = 2
)

// WriteChromeTrace exports the snapshot in Chrome trace-event JSON.
// Spans render on tid 0; each traversal gets its own tid carrying one
// enclosing event plus one event per BFS iteration, with the direction
// decision, frontier counts, and per-worker task/steal vectors in args.
// Cluster traversals additionally render one process track per shard
// (distinct pid), carrying that shard's clock-aligned step slices and
// their scan/encode/send/wait/decode/apply sub-spans.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	snap := t.Snapshot()
	events := []chromeEvent{
		meta("process_name", chromePid, 0, map[string]any{"name": "bfs"}),
		meta("thread_name", chromePid, 0, map[string]any{"name": "spans"}),
	}
	for _, s := range snap.Spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "span", Ph: "X",
			Ts: micros(s.Start.Sub(snap.Origin)), Dur: micros(s.Duration),
			Pid: chromePid, Tid: 0,
			Args: map[string]any{"detail": s.Detail},
		})
	}
	for i := range snap.Traversals {
		events = appendTraversalEvents(events, &snap.Traversals[i], snap.Origin)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func appendTraversalEvents(events []chromeEvent, tv *Traversal, origin time.Time) []chromeEvent {
	tid := int64(tv.ID)
	events = append(events,
		meta("thread_name", chromePid, tid, map[string]any{
			"name": fmt.Sprintf("traversal %d: %s", tv.ID, tv.Algo),
		}),
		chromeEvent{
			Name: tv.Algo, Cat: "traversal", Ph: "X",
			Ts: micros(tv.Start.Sub(origin)), Dur: micros(tv.End.Sub(tv.Start)),
			Pid: chromePid, Tid: tid,
			Args: map[string]any{
				"sources":    tv.Sources,
				"iterations": len(tv.Iterations),
			},
		})
	// Iterations are laid out back to back from the traversal start;
	// the kernels time iterations individually, so cumulative offsets
	// reconstruct the timeline.
	off := tv.Start.Sub(origin)
	for _, it := range tv.Iterations {
		args := map[string]any{
			"iteration": it.Iteration,
			"direction": it.Direction(),
			"reason":    it.Reason,
			"frontier":  it.FrontierVertices,
			"next":      it.UpdatedStates,
			"scanned":   it.ScannedEdges,
			"visited":   it.Visited,
		}
		if it.WorkerTasks != nil {
			args["tasks"] = it.Tasks()
			args["steals"] = it.Steals()
			args["tasks_per_worker"] = it.WorkerTasks
			args["steals_per_worker"] = it.WorkerSteals
			args["scatter_steals"] = it.ScatterSteals
		}
		if it.ExchangeRawBytes != 0 {
			args["exchange_bytes"] = it.ExchangeBytes
			args["exchange_raw_bytes"] = it.ExchangeRawBytes
			args["compression_ratio"] = it.CompressionRatio()
		}
		if it.FrontierEdges != 0 || it.UnexploredEdges != 0 {
			args["frontier_edges"] = it.FrontierEdges
			args["unexplored_edges"] = it.UnexploredEdges
		}
		if it.MergeWords != 0 {
			args["merge_words"] = it.MergeWords
			args["merge_words_per_worker"] = it.WorkerMergeWords
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("L%d %s", it.Iteration, it.Direction()),
			Cat:  "iteration", Ph: "X",
			Ts: micros(off), Dur: micros(it.Duration),
			Pid: chromePid, Tid: tid,
			Args: args,
		})
		off += it.Duration
	}
	return appendShardStepEvents(events, tv, origin)
}

// appendShardStepEvents renders a cluster traversal's merged shard
// records: per shard, one step slice per level at its clock-aligned
// start, with the sub-phases laid back to back inside it. Communication
// (rpc/*) vs computation (scan, apply) reads directly off the resulting
// Perfetto tracks.
func appendShardStepEvents(events []chromeEvent, tv *Traversal, origin time.Time) []chromeEvent {
	tid := int64(tv.ID)
	named := map[int]bool{}
	for _, st := range tv.ShardSteps {
		pid := shardPidBase + st.Shard
		if !named[pid] {
			named[pid] = true
			events = append(events,
				meta("process_name", pid, tid, map[string]any{
					"name": fmt.Sprintf("shard %d", st.Shard),
				}),
				meta("thread_name", pid, tid, map[string]any{
					"name": fmt.Sprintf("traversal %d steps", tv.ID),
				}))
		}
		start := st.AlignedStart().Sub(origin)
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("L%d step", st.Level),
			Cat:  "shard-step", Ph: "X",
			Ts: micros(start), Dur: micros(st.ShardDuration()),
			Pid: pid, Tid: tid,
			Args: map[string]any{
				"shard":       st.Shard,
				"level":       st.Level,
				"next_states": st.NextStates,
				"scanned":     st.Scanned,
				"frontier":    st.Frontier,
				"sent_bytes":  st.SentBytes,
				"raw_bytes":   st.RawBytes,
				"rpc_us":      micros(st.ReplyRecv.Sub(st.ReqSent)),
			},
		})
		off := start
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{
			{"scan", st.Scan},
			{"rpc/encode", st.Encode},
			{"rpc/send", st.Send},
			{"rpc/wait", st.Wait},
			{"rpc/decode", st.Decode},
			{"rpc/apply", st.Apply},
		} {
			events = append(events, chromeEvent{
				Name: ph.name, Cat: "shard-phase", Ph: "X",
				Ts: micros(off), Dur: micros(ph.d),
				Pid: pid, Tid: tid,
				Args: map[string]any{"level": st.Level},
			})
			off += ph.d
		}
	}
	return events
}

func meta(name string, pid int, tid int64, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
