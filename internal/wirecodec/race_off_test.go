//go:build !race

package wirecodec

const raceEnabled = false
