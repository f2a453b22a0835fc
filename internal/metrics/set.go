package metrics

import "sync"

// SetMaxPoints bounds each series in a Set: a series retains exactly the
// most recent SetMaxPoints samples in a ring window. A long-running overlay
// node records a handful of samples per load-check period forever; without
// the cap its memory and status payload would grow without bound.
const SetMaxPoints = 4096

// ringSeries is one bounded series: a fixed-capacity ring of samples. Until
// the ring fills, pts grows by appending; once full, head is the oldest slot
// and new samples overwrite it. Snapshots unroll the ring chronologically, so
// consumers (and the JSON shape) see a plain oldest-first point list.
type ringSeries struct {
	name string
	pts  []Point
	head int
	full bool
}

func (rs *ringSeries) observe(t, v float64) {
	p := Point{Time: t, Value: v}
	if !rs.full {
		rs.pts = append(rs.pts, p)
		if len(rs.pts) == SetMaxPoints {
			rs.full = true
		}
		return
	}
	rs.pts[rs.head] = p
	rs.head++
	if rs.head == len(rs.pts) {
		rs.head = 0
	}
}

// unroll copies the ring into a fresh chronological TimeSeries.
func (rs *ringSeries) unroll() *TimeSeries {
	ts := &TimeSeries{Name: rs.name, Points: make([]Point, 0, len(rs.pts))}
	if rs.full {
		ts.Points = append(ts.Points, rs.pts[rs.head:]...)
		ts.Points = append(ts.Points, rs.pts[:rs.head]...)
	} else {
		ts.Points = append(ts.Points, rs.pts...)
	}
	return ts
}

// Set is a named collection of time series with internal synchronisation, so
// concurrent producers (the overlay maintenance loop, connection handlers)
// can record samples without coordinating. Series are created on first use
// and keep their creation order for stable rendering; each series keeps
// exactly the SetMaxPoints most recent samples (a ring window — appending the
// 4097th sample evicts the 1st, not half the history).
//
// TimeSeries itself stays unsynchronised for the single-owner simulator use;
// Set is the concurrency boundary the live overlay records through.
type Set struct {
	mu     sync.Mutex
	series map[string]*ringSeries
	order  []string
}

// NewSet creates an empty set.
func NewSet() *Set {
	return &Set{series: make(map[string]*ringSeries)}
}

// Observe appends a sample to the named series, creating it if needed.
func (s *Set) Observe(name string, t, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.series[name]
	if !ok {
		rs = &ringSeries{name: name}
		s.series[name] = rs
		s.order = append(s.order, name)
	}
	rs.observe(t, v)
}

// Snapshot returns chronological copies of every series in creation order.
// The copies are safe to marshal or mutate without racing the producers.
func (s *Set) Snapshot() []TimeSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TimeSeries, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, *s.series[name].unroll())
	}
	return out
}
