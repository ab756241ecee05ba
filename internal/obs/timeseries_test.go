package obs

import (
	"testing"
	"time"
)

func TestTimeSeriesNilSafe(t *testing.T) {
	var ts *TimeSeries
	ts.Observe("x", time.Now(), 1) // must not panic
	if got := ts.Snapshot(time.Minute, time.Now()); got != nil {
		t.Fatalf("nil store snapshot = %v, want nil", got)
	}
}

func TestTimeSeriesRingEviction(t *testing.T) {
	ts := NewTimeSeries()
	base := time.Unix(1000, 0)
	for i := 0; i < seriesCapacity+6; i++ {
		ts.Observe("a", base.Add(time.Duration(i)*time.Second), float64(i))
	}
	snap := ts.Snapshot(0, base)
	if len(snap) != 1 || snap[0].Name != "a" {
		t.Fatalf("snapshot = %+v, want one series 'a'", snap)
	}
	pts := snap[0].Points
	if len(pts) != seriesCapacity {
		t.Fatalf("retained %d points, want capacity %d", len(pts), seriesCapacity)
	}
	// The ring keeps the newest seriesCapacity points in order.
	for i, p := range pts {
		if want := float64(6 + i); p.V != want {
			t.Fatalf("point %d = %v, want %v", i, p.V, want)
		}
	}
}

func TestTimeSeriesWindow(t *testing.T) {
	ts := NewTimeSeries()
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		ts.Observe("a", base.Add(time.Duration(i)*time.Second), float64(i))
	}
	now := base.Add(9 * time.Second)
	snap := ts.Snapshot(3*time.Second, now)
	pts := snap[0].Points
	if len(pts) != 4 { // t=6..9 inclusive of the cutoff boundary
		t.Fatalf("window snapshot has %d points (%v), want 4", len(pts), pts)
	}
	if pts[0].V != 6 || pts[len(pts)-1].V != 9 {
		t.Fatalf("window = [%v, %v], want [6, 9]", pts[0].V, pts[len(pts)-1].V)
	}
}

func TestTimeSeriesOrderStable(t *testing.T) {
	ts := NewTimeSeries()
	now := time.Now()
	for _, name := range []string{"z", "a", "m"} {
		ts.Observe(name, now, 1)
	}
	snap := ts.Snapshot(0, now)
	got := []string{snap[0].Name, snap[1].Name, snap[2].Name}
	want := []string{"z", "a", "m"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series order = %v, want registration order %v", got, want)
		}
	}
}
