package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is an HDR-style bucketed histogram for non-negative integer
// samples (microseconds everywhere in this repo): power-of-two octaves with
// histSubBuckets linear sub-buckets each, giving a bounded relative error of
// 1/histSubBuckets (~6%) across the full int64 range. Record is a handful of
// atomic operations on fixed cells — no allocation, no sorting and no caller
// lock — so a load driver can record millions of call latencies from many
// goroutines and still report exact-shape p50/p95/p99.
//
// The same type backs the registry's histogram families, which expose it at
// the fixed le bounds in exposeBounds. Create one with NewHistogram.
type Histogram struct {
	cells [histBuckets]atomic.Uint64
	count atomic.Uint64
	sum   atomic.Int64
	min   atomic.Int64 // math.MaxInt64 until the first sample
	max   atomic.Int64
}

const (
	// histSubBits sets the linear sub-bucket resolution per octave.
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: 64 octaves of
	// histSubBuckets plus the initial linear range [0, histSubBuckets).
	histBuckets = (64 + 1) * histSubBuckets
)

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a sample to its bucket: values below histSubBuckets map
// linearly; above, the top histSubBits bits after the leading one select the
// sub-bucket within the value's octave.
func bucketIndex(v int64) int {
	if v < histSubBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return ((e + 1) << histSubBits) + int(uint64(v)>>uint(e)) - histSubBuckets
}

// bucketMid returns a representative value (midpoint) for a bucket index,
// the inverse of bucketIndex up to the bucket's width.
func bucketMid(i int) float64 {
	if i < histSubBuckets {
		return float64(i)
	}
	e := i>>histSubBits - 1
	low := (uint64(histSubBuckets) + uint64(i&(histSubBuckets-1))) << uint(e)
	width := uint64(1) << uint(e)
	return float64(low) + float64(width-1)/2
}

// Record adds one sample. Negative samples clamp to zero. Safe for
// concurrent use.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.cells[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	lowerMin(&h.min, v)
	raiseMax(&h.max, v)
	h.count.Add(1)
}

func lowerMin(m *atomic.Int64, v int64) {
	for old := m.Load(); v < old && !m.CompareAndSwap(old, v); old = m.Load() {
	}
}

func raiseMax(m *atomic.Int64, v int64) {
	for old := m.Load(); v > old && !m.CompareAndSwap(old, v); old = m.Load() {
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count.Load() == 0 {
		return
	}
	for i := range other.cells {
		if c := other.cells[i].Load(); c > 0 {
			h.cells[i].Add(c)
		}
	}
	h.sum.Add(other.sum.Load())
	lowerMin(&h.min, other.min.Load())
	raiseMax(&h.max, other.max.Load())
	h.count.Add(other.count.Load())
}

// Quantile returns the value at quantile q in [0, 1] (bucket midpoint;
// relative error bounded by the sub-bucket width). Zero when empty.
func (h *Histogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank on the cumulative bucket counts.
	rank := uint64(q * float64(count))
	if rank > 0 {
		rank--
	}
	var seen uint64
	for i := range h.cells {
		c := h.cells[i].Load()
		seen += c
		if c > 0 && seen > rank {
			return bucketMid(i)
		}
	}
	return float64(h.max.Load())
}

// Summary renders the histogram as the package's standard Summary statistics.
// Min and Max are exact; the percentiles carry the bucket resolution error.
func (h *Histogram) Summary() Summary {
	count := h.count.Load()
	if count == 0 {
		return Summary{}
	}
	return Summary{
		Count: int(count),
		Min:   float64(h.min.Load()),
		Max:   float64(h.max.Load()),
		Mean:  float64(h.sum.Load()) / float64(count),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// exposeBounds are the le bounds (µs) the registry renders for every
// histogram: 1 µs, then 4^k − 1 µs up to about 1 s. Each is the last value
// of its bucket, so the cumulative count at a bound is a sum of whole cells
// and exact, never interpolated.
var exposeBounds = [...]int64{1, 3, 15, 63, 255, 1023, 4095, 16383, 65535, 262143, 1048575}

// cumulative returns the cumulative counts at exposeBounds plus the total of
// all cells (the +Inf bucket), each cell read once so the ladder is
// monotone even while Record runs.
func (h *Histogram) cumulative() (atBound [len(exposeBounds)]uint64, total uint64) {
	i := 0
	for b, bound := range exposeBounds {
		for last := bucketIndex(bound); i <= last; i++ {
			total += h.cells[i].Load()
		}
		atBound[b] = total
	}
	for ; i < len(h.cells); i++ {
		total += h.cells[i].Load()
	}
	return atBound, total
}
