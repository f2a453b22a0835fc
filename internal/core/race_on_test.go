//go:build race

package core

// raceEnabled reports a -race build: the detector slows every memory access
// by an order of magnitude, so throughput floors only hold without it.
const raceEnabled = true
