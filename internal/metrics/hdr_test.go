package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLatencyHistSmallValuesExact(t *testing.T) {
	h := NewLatencyHist()
	for v := int64(0); v < 16; v++ {
		h.Record(v)
	}
	if h.count != 16 {
		t.Fatalf("count = %d", h.count)
	}
	s := h.Summary()
	if s.Min != 0 || s.Max != 15 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	// Values below the sub-bucket count are exact.
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %v, want 7", got)
	}
	if got := h.Quantile(1.0); got != 15 {
		t.Errorf("p100 = %v, want 15", got)
	}
}

func TestLatencyHistBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, prev)
		}
		if i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		// The representative value must sit within one bucket width.
		mid := bucketMid(i)
		if v >= 16 {
			rel := math.Abs(mid-float64(v)) / float64(v)
			if rel > 1.0/histSubBuckets {
				t.Errorf("bucketMid(%d) = %v for value %d: relative error %.3f", i, mid, v, rel)
			}
		}
		prev = i
	}
}

// TestLatencyHistQuantilesVsExact checks the histogram percentiles against
// the exact sorted-slice percentiles on a heavy-tailed distribution.
func TestLatencyHistQuantilesVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewLatencyHist()
	var values []float64
	for i := 0; i < 200000; i++ {
		// Log-normal-ish latencies from 1µs to ~1s.
		v := int64(math.Exp(rng.NormFloat64()*1.5 + 5))
		h.Record(v)
		values = append(values, float64(v))
	}
	sort.Float64s(values)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := values[int(math.Ceil(q*float64(len(values))))-1] // nearest rank
		got := h.Quantile(q)
		if exact == 0 {
			continue
		}
		rel := math.Abs(got-exact) / exact
		if rel > 1.0/histSubBuckets+0.01 {
			t.Errorf("q%.2f = %v, exact %v (relative error %.3f)", q, got, exact, rel)
		}
	}
	s := h.Summary()
	if s.Count != 200000 {
		t.Errorf("count = %d", s.Count)
	}
	exactMean := 0.0
	for _, v := range values {
		exactMean += v
	}
	exactMean /= float64(len(values))
	if math.Abs(s.Mean-exactMean)/exactMean > 1e-9 {
		t.Errorf("mean = %v, exact %v", s.Mean, exactMean)
	}
}

func TestLatencyHistMerge(t *testing.T) {
	a, b := NewLatencyHist(), NewLatencyHist()
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(b)
	a.Merge(NewLatencyHist()) // empty merge is a no-op
	if a.count != 2000 {
		t.Fatalf("merged count = %d", a.count)
	}
	s := a.Summary()
	if s.Min != 0 || s.Max != 1999 {
		t.Errorf("merged min/max = %v/%v", s.Min, s.Max)
	}
	if rel := math.Abs(s.P50-1000) / 1000; rel > 1.0/histSubBuckets+0.01 {
		t.Errorf("merged p50 = %v, want ~1000", s.P50)
	}
}

func TestLatencyHistRecordNoAlloc(t *testing.T) {
	h := NewLatencyHist()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(12345)
	})
	if allocs != 0 {
		t.Errorf("Record allocations = %v, want 0", allocs)
	}
}

func TestLatencyHistEmpty(t *testing.T) {
	h := NewLatencyHist()
	if s := h.Summary(); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	h.Record(-5) // clamps to 0
	if h.min != 0 || h.max != 0 {
		t.Errorf("negative record: min/max = %d/%d", h.min, h.max)
	}
}
