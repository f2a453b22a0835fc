package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestSetObserveAndSnapshot(t *testing.T) {
	s := NewSet()
	s.Observe("load.total", 0, 0.5)
	s.Observe("load.total", 1, 0.7)
	s.Observe("counter.splits", 1, 2)

	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	// Creation order is preserved.
	if snap[0].Name != "load.total" || snap[1].Name != "counter.splits" {
		t.Errorf("order = %s, %s", snap[0].Name, snap[1].Name)
	}
	if len(snap[0].Points) != 2 || snap[0].Points[1].Value != 0.7 {
		t.Errorf("load.total = %+v", snap[0])
	}

	// Snapshot copies must not alias the live series.
	snap[0].Points[0].Value = 99
	if got := s.Snapshot()[0].Points[0].Value; got != 0.5 {
		t.Errorf("snapshot aliases live series: %v", got)
	}

	// The snapshot is JSON-marshalable for the status endpoint.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names := []string{"a", "b", "c"}
			for i := 0; i < 200; i++ {
				s.Observe(names[(g+i)%len(names)], float64(i), float64(g))
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, ts := range s.Snapshot() {
		total += len(ts.Points)
	}
	if total != 8*200 {
		t.Errorf("total samples = %d, want %d", total, 8*200)
	}
}

func TestSetCapsSeriesLength(t *testing.T) {
	s := NewSet()
	for i := 0; i < 3*SetMaxPoints; i++ {
		s.Observe("x", float64(i), float64(i))
	}
	ts := s.Snapshot()[0]
	if len(ts.Points) != SetMaxPoints {
		t.Fatalf("series has %d points, want exactly %d", len(ts.Points), SetMaxPoints)
	}
	// The ring window keeps exactly the newest SetMaxPoints samples.
	if got := ts.Points[0].Value; got != float64(2*SetMaxPoints) {
		t.Errorf("oldest retained value = %v, want %v", got, 2*SetMaxPoints)
	}
	if got := ts.Points[len(ts.Points)-1].Value; got != float64(3*SetMaxPoints-1) {
		t.Errorf("last value = %v, want %v", got, 3*SetMaxPoints-1)
	}
	// Points stay in time order after trims.
	for i := 1; i < len(ts.Points); i++ {
		if ts.Points[i].Time <= ts.Points[i-1].Time {
			t.Fatalf("points out of order at %d: %v after %v", i, ts.Points[i], ts.Points[i-1])
		}
	}
}
