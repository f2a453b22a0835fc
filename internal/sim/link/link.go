// Package link models one-way network link behavior — propagation latency
// with jitter, independent per-message loss, duplicates and late delivery —
// as overlay.MemNetwork.SetLink applies it, in the simulator (internal/sim)
// and in clashload -inproc -latency runs. The model deliberately has no clock
// of its own: callers sample it with their PRNG and apply the result on
// whatever timeline they run (virtual event time in the simulator, real
// sleeps in -inproc runs).
package link

import (
	"fmt"
	"math/rand"
	"time"
)

// Model describes one direction of a network link.
type Model struct {
	// BaseLatency is the fixed one-way propagation delay.
	BaseLatency time.Duration `json:"base_latency"`
	// Jitter is the width of the uniform random delay added on top of
	// BaseLatency: each message waits BaseLatency + U[0, Jitter).
	Jitter time.Duration `json:"jitter,omitempty"`
	// Loss is the independent probability in [0, 1) that a message is
	// dropped in transit.
	Loss float64 `json:"loss,omitempty"`
	// DropTimeout is how long a sender waits before concluding a lost
	// message will never be answered (the virtual analogue of a call
	// timeout). Zero means the loss surfaces immediately.
	DropTimeout time.Duration `json:"drop_timeout,omitempty"`
	// Dup is the independent probability in [0, 1) that a delivered request
	// is duplicated — the copy arrives too (gray-fault injection).
	Dup float64 `json:"dup,omitempty"`
	// Reorder is the independent probability in [0, 1) that a delivered
	// request spawns a late duplicate — a stale copy arriving DropTimeout
	// after the original (gray-fault injection).
	Reorder float64 `json:"reorder,omitempty"`
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.BaseLatency < 0 || m.Jitter < 0 || m.DropTimeout < 0 {
		return fmt.Errorf("link: negative durations in %+v", m)
	}
	if m.Loss < 0 || m.Loss >= 1 {
		return fmt.Errorf("link: loss %g outside [0, 1)", m.Loss)
	}
	if m.Dup < 0 || m.Dup >= 1 {
		return fmt.Errorf("link: dup %g outside [0, 1)", m.Dup)
	}
	if m.Reorder < 0 || m.Reorder >= 1 {
		return fmt.Errorf("link: reorder %g outside [0, 1)", m.Reorder)
	}
	return nil
}

// Zero reports whether the model is the zero-RTT, lossless identity.
func (m Model) Zero() bool {
	return m.BaseLatency == 0 && m.Jitter == 0 && m.Loss == 0 &&
		m.Dup == 0 && m.Reorder == 0
}

// Sample draws the fate of one message: its one-way delay, and whether it is
// lost. Both outcomes consume PRNG draws in a fixed order (loss first, then
// jitter) so simulation runs with the same seed stay bit-identical. A lost
// message's latency is the model's DropTimeout (how long the sender stalls
// before noticing).
func (m Model) Sample(rng *rand.Rand) (latency time.Duration, dropped bool) {
	if m.Loss > 0 && rng.Float64() < m.Loss {
		return m.DropTimeout, true
	}
	latency = m.BaseLatency
	if m.Jitter > 0 {
		latency += time.Duration(rng.Int63n(int64(m.Jitter)))
	}
	return latency, false
}

// WAN returns a rough wide-area profile: base one-way latency around lat with
// ±25% jitter and the given loss probability. It is the default the simulator
// scenarios and clashload -latency use.
func WAN(lat time.Duration, loss float64) Model {
	return Model{
		BaseLatency: lat - lat/8,
		Jitter:      lat / 4,
		Loss:        loss,
		DropTimeout: 4 * lat,
	}
}
