// Package metrics provides the measurement primitives used by the live
// overlay, the hub, the load driver and the simulator: one HDR histogram
// (Histogram) with its Summary, and one Prometheus text registry (Registry)
// whose histogram families are that same Histogram, plus the registry's
// exposition linter.
package metrics

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
