package load

import (
	"sync"
	"time"

	"clash/internal/bitkey"
)

// Meter measures per-group packet rates over a measurement interval. An
// overlay node (live or under the simulator) records packet arrivals against
// key groups; at each load-check period the owner reads the per-group rates,
// adds each group's stored-query count from its query engine, converts the
// samples to loads with a Model, and the rate counters start over. Groups are
// the map keys themselves (bitkey.Group is comparable), so recording a packet
// formats no label and allocates nothing once the group has an entry.
//
// Meter is safe for concurrent use so the live overlay can record arrivals
// from many connection goroutines.
type Meter struct {
	mu      sync.Mutex
	arrived map[bitkey.Group]float64 // packets observed this interval, per group
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

// Snapshot returns the per-group packet rates (packets/second) for the
// interval that just ended and resets the counters, so every interval starts
// from zero. With a clock (NewMeterClock) the rate denominator is the clamped
// elapsed time since the previous snapshot; without one it is the nominal
// window.
func (m *Meter) Snapshot() map[bitkey.Group]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	window := m.window
	if m.now != nil {
		t := m.now()
		elapsed := t.Sub(m.lastSnap).Seconds()
		m.lastSnap = t
		window = min(max(elapsed, m.window/2), m.window*2)
	}
	out := make(map[bitkey.Group]float64, len(m.arrived))
	for g, pkts := range m.arrived {
		out[g] = pkts / window
	}
	m.arrived = make(map[bitkey.Group]float64)
	return out
}
