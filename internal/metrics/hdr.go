package metrics

import "math/bits"

// LatencyHist is an HDR-style bucketed histogram for non-negative integer
// samples (microseconds in clashload): power-of-two octaves with
// histSubBuckets linear sub-buckets each, giving a bounded relative error of
// 1/histSubBuckets (~6%) across the full int64 range. Record is a fixed
// array increment — no per-sample allocation and no sorting, so a load
// driver can record millions of call latencies and still report exact-shape
// p50/p95/p99.
//
// LatencyHist is not synchronised: give each producer its own histogram and
// Merge them at the end (the clashload worker pattern).
type LatencyHist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	// histSubBits sets the linear sub-bucket resolution per octave.
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range: 64 octaves of
	// histSubBuckets plus the initial linear range [0, histSubBuckets).
	histBuckets = (64 + 1) * histSubBuckets
)

// NewLatencyHist creates an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{min: -1}
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

// Record adds one sample. Negative samples clamp to zero.
func (h *LatencyHist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += float64(v)
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h.
func (h *LatencyHist) Merge(other *LatencyHist) {
	if other == nil || other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if h.min < 0 || (other.min >= 0 && other.min < h.min) {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Quantile returns the value at quantile q in [0, 1] (bucket midpoint;
// relative error bounded by the sub-bucket width). Zero when empty.
func (h *LatencyHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank on the cumulative bucket counts.
	rank := uint64(q * float64(h.count))
	if rank > 0 {
		rank--
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen > rank {
			return bucketMid(i)
		}
	}
	return float64(h.max)
}

// Summary renders the histogram as the package's standard Summary statistics.
// Min and Max are exact; the percentiles carry the bucket resolution error.
func (h *LatencyHist) Summary() Summary {
	if h.count == 0 {
		return Summary{}
	}
	return Summary{
		Count: int(h.count),
		Min:   float64(h.min),
		Max:   float64(h.max),
		Mean:  h.sum / float64(h.count),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
