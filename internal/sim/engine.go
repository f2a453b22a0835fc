// Package sim is the deterministic discrete-event simulator for the CLASH
// overlay: a virtual clock, a priority event queue and a seeded PRNG drive
// unmodified overlay.Nodes (via the clock.Clock they are configured with) over
// an overlay.MemNetwork on the engine's clock, with per-link latency,
// jitter, loss, partitions and gray faults. A thousand-node overlay runs an
// hour of virtual protocol time in seconds of wall clock, and two runs with
// the same seed are bit-identical — every figure the scenario harness (Run,
// cmd/clashsim) records is reproducible.
//
// The engine is single-threaded by construction: events execute one at a time
// in (time, sequence) order, so there is no scheduling nondeterminism to
// leak into results. The simulation works at the paper's
// measurement-interval granularity — maintenance rounds, load checks,
// traffic bursts and churn are scheduled events on the virtual clock, while
// individual message exchanges execute inline at their issue instant with
// their latency sampled into statistics and charged to
// overlay.MemNetwork.TraceCall. Nothing in the simulated path reads the wall
// clock or sleeps.
package sim

import (
	"container/heap"
	"math/rand"
	"time"

	"clash/internal/clock"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration // virtual time since the epoch
	seq uint64        // schedule order, the deterministic tiebreak
	fn  func()
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is the discrete-event core: the virtual clock and the event queue.
// It is not safe for concurrent use — the whole simulation runs on one
// goroutine, which is what makes it deterministic.
type Engine struct {
	epoch time.Time
	now   time.Duration
	seq   uint64
	heap  eventHeap
	rng   *rand.Rand
}

// epoch is an arbitrary fixed instant virtual time counts from; any constant
// works, a round UTC date keeps timestamps readable in debug output.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// NewEngine creates an engine whose PRNG — the single source of randomness
// for the whole simulation — is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{epoch: simEpoch, rng: rand.New(rand.NewSource(seed))}
}

// Rand returns the engine's PRNG. All simulated randomness (link sampling,
// workload draws, churn victim selection) must come from it, in the
// deterministic single-threaded event order.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// VirtualNow returns the virtual time elapsed since the engine's epoch.
func (e *Engine) VirtualNow() time.Duration { return e.now }

// Now implements clock.Clock: the virtual instant.
func (e *Engine) Now() time.Time { return e.epoch.Add(e.now) }

// At schedules fn at the absolute virtual time t (clamped to now — the past
// is immutable).
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.heap, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

// step executes the earliest pending event, advancing the clock to it (the
// clock never moves backward: an event scheduled in the past runs late, at
// the current instant). It reports false when the queue is empty.
func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*event)
	if ev.at > e.now {
		e.now = ev.at
	}
	ev.fn()
	return true
}

// RunUntil executes every event scheduled at or before t (including events
// those events schedule), then advances the clock to t.
func (e *Engine) RunUntil(t time.Duration) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// NewTimer implements clock.Clock on virtual time.
func (e *Engine) NewTimer(d time.Duration) clock.Timer {
	t := &simTimer{ch: make(chan time.Time, 1)}
	e.After(d, func() {
		if t.stopped {
			return
		}
		t.fired = true
		select {
		case t.ch <- e.Now():
		default:
		}
	})
	return t
}

type simTimer struct {
	ch      chan time.Time
	stopped bool
	fired   bool
}

func (t *simTimer) C() <-chan time.Time { return t.ch }
func (t *simTimer) Stop() bool {
	was := !t.stopped && !t.fired
	t.stopped = true
	return was
}

// NewTicker implements clock.Clock on virtual time. Ticks that find the
// channel full are dropped (like a real ticker's), so an unread ticker does
// not grow the queue without bound — but it does reschedule itself forever
// until stopped, so scenario code drives nodes directly (Tick/LoadCheck
// events) instead of running their wall-clock maintenance loops.
func (e *Engine) NewTicker(d time.Duration) clock.Ticker {
	if d <= 0 {
		panic("sim: non-positive ticker interval")
	}
	t := &simTicker{ch: make(chan time.Time, 1)}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		select {
		case t.ch <- e.Now():
		default:
		}
		e.After(d, tick)
	}
	e.After(d, tick)
	return t
}

type simTicker struct {
	ch      chan time.Time
	stopped bool
}

func (t *simTicker) C() <-chan time.Time { return t.ch }
func (t *simTicker) Stop()               { t.stopped = true }

var _ clock.Clock = (*Engine)(nil)
