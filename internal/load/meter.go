package load

import (
	"sync"
	"time"

	"clash/internal/bitkey"
)

// Meter accumulates per-group work measurements over a measurement interval.
// An overlay node (live or under the simulator) records packet arrivals and
// query registrations against key groups; at each load-check period the
// owner reads the per-group samples, converts them to loads with a Model and
// resets the rate counters for the next interval. Groups are the map keys
// themselves (bitkey.Group is comparable), so recording a packet formats no
// label and allocates nothing once the group has an entry.
//
// Meter is safe for concurrent use so the live overlay can record arrivals
// from many connection goroutines.
type Meter struct {
	mu      sync.Mutex
	arrived map[bitkey.Group]float64 // packets observed this interval, per group
	queries map[bitkey.Group]int     // currently registered queries, per group
	window  float64                  // nominal interval length in seconds

	// now, when set, timestamps snapshots so rates are computed over the
	// actual elapsed interval instead of the nominal window (see
	// NewMeterClock). lastSnap is the previous snapshot time.
	now      func() time.Time
	lastSnap time.Time
}

// NewMeterClock creates a meter that reads interval boundaries from the given
// clock: each Snapshot converts packet counts into rates using the time
// actually elapsed since the previous snapshot, clamped to [window/2,
// window*2] so one jittered or delayed period cannot produce a wild rate
// estimate. The overlay passes its node clock here, which is what lets the
// simulator's virtual clock drive measurement windows in virtual time. A nil
// now falls back to the fixed nominal window.
func NewMeterClock(windowSeconds float64, now func() time.Time) *Meter {
	if windowSeconds <= 0 {
		windowSeconds = 1
	}
	m := &Meter{
		arrived: make(map[bitkey.Group]float64),
		queries: make(map[bitkey.Group]int),
		window:  windowSeconds,
		now:     now,
	}
	if now != nil {
		m.lastSnap = now()
	}
	return m
}

// RecordPackets adds n packet arrivals for a group in the current interval.
func (m *Meter) RecordPackets(group bitkey.Group, n float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.arrived[group] += n
}

// SetQueries sets the current number of stored queries for a group.
func (m *Meter) SetQueries(group bitkey.Group, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		delete(m.queries, group)
		return
	}
	m.queries[group] = n
}

// AddQueries adjusts the stored-query count for a group by delta.
func (m *Meter) AddQueries(group bitkey.Group, delta int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.queries[group] + delta
	if n <= 0 {
		delete(m.queries, group)
		return
	}
	m.queries[group] = n
}

// Drop removes all state for a group (after it has been transferred away).
func (m *Meter) Drop(group bitkey.Group) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.arrived, group)
	delete(m.queries, group)
}

// Snapshot returns the per-group samples for the interval that just ended and
// resets the packet counters (query counts persist, since queries are
// long-lived state). With a clock (NewMeterClock) the rate denominator is the
// clamped elapsed time since the previous snapshot; without one it is the
// nominal window.
func (m *Meter) Snapshot() map[bitkey.Group]Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	window := m.window
	if m.now != nil {
		t := m.now()
		elapsed := t.Sub(m.lastSnap).Seconds()
		m.lastSnap = t
		window = min(max(elapsed, m.window/2), m.window*2)
	}
	out := make(map[bitkey.Group]Sample, len(m.arrived)+len(m.queries))
	for g, pkts := range m.arrived {
		s := out[g]
		s.DataRate = pkts / window
		out[g] = s
	}
	for g, q := range m.queries {
		s := out[g]
		s.Queries = q
		out[g] = s
	}
	m.arrived = make(map[bitkey.Group]float64)
	return out
}
