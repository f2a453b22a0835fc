package main

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram at nanosecond resolution: values
// below 2^subBits are exact, larger ones fall into 2^subBits sub-buckets per
// power of two (under 1% relative width). Quantiles interpolate by rank
// inside a bucket. Record never allocates, so histograms can sit on the
// measured path without moving the allocation or heap figures.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
	sum    float64
}

const subBits = 7

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)<<subBits + int(uint64(v)>>uint(shift)) - 1<<subBits
}

// bucketRange returns the lowest value of bucket i and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	mant := i&(1<<subBits-1) + 1<<subBits
	return float64(uint64(mant) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile in ns.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if before+float64(c) >= rank {
			lo, width := bucketRange(i)
			return lo + width*(rank-before)/float64(c)
		}
		before += float64(c)
	}
	lo, width := bucketRange(len(h.counts) - 1)
	return lo + width
}

// beyond is how many samples lie above the q-quantile.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)))
}

// percentile renders the q-quantile in µs with its sample counts, and fails
// when fewer than ten samples lie beyond it: such a percentile is not
// measured, only guessed.
func (h *hist) percentile(name string, q float64) (float64, string, error) {
	if h.n == 0 || h.beyond(q) < 10 {
		return 0, "", fmt.Errorf("%s: %d samples, need at least 10 beyond the %g quantile", name, h.n, q)
	}
	v := h.quantile(q) / 1e3
	return v, fmt.Sprintf("%s=%.3f us (n=%d, %d beyond)", name, v, h.n, h.beyond(q)), nil
}

// slicer cuts one source's timed samples into consecutive wall-clock slices
// and keeps each slice's sample count, median and tail quantile. A run's
// latency and rate figures are medians over its slices, which keeps a burst
// of contention on a shared machine from moving them; the whole-run
// histograms are printed beside them.
type slicer struct {
	origin time.Duration // slice 0 starts here (process clock)
	width  time.Duration // 0: one slice, closed by flush
	idx    int
	tail   float64 // the tail quantile kept per slice
	cur    hist
	stats  []sliceStat
}

type sliceStat struct {
	idx       int
	n         uint64
	dur       time.Duration
	p50, tail float64 // ns
}

func newSlicer(origin, width time.Duration, idx int, tail float64) *slicer {
	return &slicer{origin: origin, width: width, idx: idx, tail: tail}
}

// clone returns an empty slicer with the same slice placement, for another
// source sampled over the same phase.
func (sl *slicer) clone() *slicer { return newSlicer(sl.origin, sl.width, sl.idx, sl.tail) }

// record adds one sample of v ns that completed at process time at.
func (sl *slicer) record(at time.Duration, v int64) {
	if sl.width > 0 {
		if idx := int((at - sl.origin) / sl.width); idx != sl.idx {
			sl.close(sl.width)
			sl.idx = idx
		}
	}
	sl.cur.record(v)
}

// flush closes the open slice. With a width, the open slice is partial and
// is dropped; without one it lasted until at.
func (sl *slicer) flush(at time.Duration) {
	if sl.width == 0 {
		sl.close(at - sl.origin)
	}
	sl.cur = hist{}
}

func (sl *slicer) close(dur time.Duration) {
	if sl.cur.n > 0 {
		sl.stats = append(sl.stats, sliceStat{idx: sl.idx, n: sl.cur.n, dur: dur,
			p50: sl.cur.quantile(0.5), tail: sl.cur.quantile(sl.tail)})
	}
	sl.cur = hist{}
}
