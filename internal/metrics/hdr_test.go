package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestLatencyHistSmallValuesExact(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 16; v++ {
		h.Record(v)
	}
	if n := h.count.Load(); n != 16 {
		t.Fatalf("count = %d", n)
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
	h := NewHistogram()
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
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(b)
	a.Merge(NewHistogram()) // empty merge is a no-op
	if n := a.count.Load(); n != 2000 {
		t.Fatalf("merged count = %d", n)
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
	h := NewHistogram()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(12345)
	})
	if allocs != 0 {
		t.Errorf("Record allocations = %v, want 0", allocs)
	}
}

func TestLatencyHistEmpty(t *testing.T) {
	h := NewHistogram()
	if s := h.Summary(); s != (Summary{}) {
		t.Errorf("empty summary = %+v", s)
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	h.Record(-5) // clamps to 0
	if s := h.Summary(); s.Min != 0 || s.Max != 0 {
		t.Errorf("negative record: min/max = %v/%v", s.Min, s.Max)
	}
}

// TestHistogramConcurrentRecord checks that Record needs no caller lock:
// goroutines recording into one histogram end with the same count, sum, min,
// max and cells as one goroutine recording the same samples. Run it under
// -race.
func TestHistogramConcurrentRecord(t *testing.T) {
	const workers, per = 8, 5000
	sample := func(w, i int) int64 { return int64((w*per+i)*7919) % 3_000_000 }
	serial, shared := NewHistogram(), NewHistogram()
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			serial.Record(sample(w, i))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				shared.Record(sample(w, i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := shared.Summary(), serial.Summary(); got != want {
		t.Errorf("concurrent summary = %+v, serial %+v", got, want)
	}
	if got, want := shared.sum.Load(), serial.sum.Load(); got != want {
		t.Errorf("concurrent sum = %d, serial %d", got, want)
	}
	for i := range serial.cells {
		if got, want := shared.cells[i].Load(), serial.cells[i].Load(); got != want {
			t.Fatalf("cell %d = %d, serial %d", i, got, want)
		}
	}
}

// TestHistogramExpositionExact checks that every rendered le bucket is exact:
// its cumulative count equals a brute-force count of the samples <= le, for
// samples on, just below and just above every bound as well as a spread in
// between, and that the exposition lints clean.
func TestHistogramExpositionExact(t *testing.T) {
	var samples []int64
	for _, b := range exposeBounds {
		samples = append(samples, b-1, b, b, b+1)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		samples = append(samples, int64(math.Exp(rng.Float64()*15)))
	}
	r := NewRegistry()
	h := r.HistogramVec("stage_seconds", "t", "stage").With("route")
	var sum int64
	for _, v := range samples {
		h.Record(v)
		sum += v
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, bound := range exposeBounds {
		want := 0
		for _, v := range samples {
			if v <= bound {
				want++
			}
		}
		line := fmt.Sprintf(`stage_seconds_bucket{stage="route",le="%s"} %d`, formatFloat(float64(bound)/1e6), want)
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in\n%s", line, out)
		}
	}
	for _, want := range []string{
		fmt.Sprintf(`stage_seconds_bucket{stage="route",le="+Inf"} %d`, len(samples)),
		fmt.Sprintf(`stage_seconds_count{stage="route"} %d`, len(samples)),
		fmt.Sprintf(`stage_seconds_sum{stage="route"} %s`, formatFloat(float64(sum)/1e6)),
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint: %v", errs)
	}
}
