package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPropertySummaryBounds checks that a histogram's Summary is ordered for
// any sample set: Min ≤ Mean ≤ Max and P50 ≤ P95 ≤ P99.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(raw []int64) bool {
		h := NewHistogram()
		for _, v := range raw {
			// Bounded magnitudes keep the sum from overflowing and the
			// mean from falling outside [Min, Max] by rounding.
			h.Record(v % 1e9)
		}
		s := h.Summary()
		if h.count.Load() == 0 {
			return s.Count == 0
		}
		return s.Min <= s.Mean && s.Mean <= s.Max && s.P50 <= s.P95 && s.P95 <= s.P99 &&
			!math.IsNaN(s.Mean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
