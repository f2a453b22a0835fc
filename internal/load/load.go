// Package load implements the server load model used in the CLASH paper's
// evaluation (§6): for query-processing applications the load of a server is
// linear in the cumulative data rate it handles and logarithmic in the number
// of continuous queries it stores, normalised to the server's capacity.
// Overload and underload are detected by comparing the resulting load
// fraction against fixed thresholds (90% / 54% in the paper).
package load

import "math"

// Threshold values from the paper (§6.1), as fractions of capacity.
const (
	// OverloadFraction is the maximum acceptable load on a server.
	OverloadFraction = 0.90
	// UnderloadFraction is the minimum (underflow) load.
	UnderloadFraction = 0.54
)

// Sample is one measurement of the work attributable to a key group over a
// measurement interval.
type Sample struct {
	// DataRate is the cumulative data arrival rate (packets/second).
	DataRate float64
	// Queries is the number of continuous queries currently stored.
	Queries int
}

// Model converts a Sample into a load fraction of a server's capacity.
//
// load = (rate + log2(1+queries)) / Capacity
type Model struct {
	// Capacity is the amount of work a server can sustain; load is reported
	// as a fraction of it.
	Capacity float64
}

// DefaultModel returns the model used by the experiments: a server saturates
// at `capacityPackets` packets/sec when it stores no queries, and query state
// contributes logarithmically.
func DefaultModel(capacityPackets float64) Model {
	return Model{Capacity: capacityPackets}
}

// Load returns the load fraction for a sample. The result can exceed 1 when a
// server is driven past its capacity (as the paper's DHT(6) baseline is).
func (m Model) Load(s Sample) float64 {
	if m.Capacity <= 0 {
		return 0
	}
	work := s.DataRate + math.Log2(1+float64(s.Queries))
	return work / m.Capacity
}
