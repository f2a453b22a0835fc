//go:build race

package overlay

// raceEnabled reports a -race build: sync.Pool drops items at random under
// the race detector, so allocation ceilings only hold without it.
const raceEnabled = true
