package main

import (
	"sync/atomic"
	"time"

	"clash/internal/clock"
)

// vclock is the benchmark-owned clock every node runs on. Virtual time moves
// only when the benchmark calls maintain, so every load meter sees the same
// windows holding the same packets in every run, and splits and merges land
// at the same op index. While traffic flows the clock is live: Now adds the
// wall time since the last maintenance pass, so the stage timings nodes take
// for the observer are real. During maintenance it is frozen at the exact
// virtual instant.
//
// No node runs its Run loop and no client uses a Batcher, so nothing asks
// this clock for timers.
type vclock struct {
	start   time.Time
	virtual atomic.Int64 // virtual ns since epoch
	liveAt  atomic.Int64 // wall ns since start when the clock went live; 0 = frozen
}

var epoch = time.Date(2004, 3, 24, 0, 0, 0, 0, time.UTC)

func newVClock() *vclock { return &vclock{start: time.Now()} }

// Now implements clock.Clock.
func (c *vclock) Now() time.Time {
	t := epoch.Add(time.Duration(c.virtual.Load()))
	if live := c.liveAt.Load(); live != 0 {
		t = t.Add(time.Since(c.start) - time.Duration(live))
	}
	return t
}

// freeze stops the wall-time component and moves virtual time forward by d.
func (c *vclock) freeze(d time.Duration) {
	c.liveAt.Store(0)
	c.virtual.Add(int64(d))
}

// thaw lets Now follow the wall clock again from the current virtual instant.
func (c *vclock) thaw() { c.liveAt.Store(int64(time.Since(c.start)) | 1) }

// NewTicker implements clock.Clock; see the type comment.
func (c *vclock) NewTicker(time.Duration) clock.Ticker {
	panic("perfbench: the virtual clock drives no tickers")
}

// NewTimer implements clock.Clock; see the type comment.
func (c *vclock) NewTimer(time.Duration) clock.Timer {
	panic("perfbench: the virtual clock drives no timers")
}
