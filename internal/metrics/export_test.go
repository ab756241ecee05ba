package metrics

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() int64 { return atomic.LoadInt64(&h.sum) }

func TestRunSummary(t *testing.T) {
	r := RunStat{
		Elapsed:        2 * time.Second,
		TraversedEdges: 4e9,
		Sources:        64,
		Iterations:     []obs.IterationRecord{{Iteration: 1}, {Iteration: 2}},
	}
	s := r.Summary()
	if s.ElapsedNs != int64(2*time.Second) || s.TraversedEdges != 4e9 ||
		s.Sources != 64 || s.Iterations != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.GTEPS != 2.0 {
		t.Errorf("gteps = %v, want 2.0", s.GTEPS)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"gteps":2`) {
		t.Errorf("run summary JSON %s missing gteps", b)
	}
}
