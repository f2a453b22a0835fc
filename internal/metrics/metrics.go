// Package metrics provides the lightweight measurement primitives used by the
// live overlay's status reporting, the hub and the simulator: bounded time
// series (Set), HDR latency histograms (LatencyHist) and their Summary, and a
// Prometheus text registry with its exposition linter.
package metrics

// Point is one (time, value) sample. Time is in seconds on the recording
// clock (virtual time in the simulator).
type Point struct {
	Time  float64 `json:"t"`
	Value float64 `json:"v"`
}

// TimeSeries is a named series of samples in time order (see Set).
type TimeSeries struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	Count int
	Min   float64
	Max   float64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
}
