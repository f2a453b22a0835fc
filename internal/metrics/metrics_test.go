package metrics

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

// TestTimeSeriesBasics pins the JSON shape a series has in node status
// reports.
func TestTimeSeriesBasics(t *testing.T) {
	ts := TimeSeries{Name: "load", Points: []Point{{Time: 0, Value: 1}, {Time: 60, Value: 2.5}}}
	b, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"name":"load","points":[{"t":0,"v":1},{"t":60,"v":2.5}]}`
	if string(b) != want {
		t.Errorf("JSON = %s, want %s", b, want)
	}
}

// TestPropertySummaryBounds checks that a histogram's Summary is ordered for
// any sample set: Min ≤ Mean ≤ Max and P50 ≤ P95 ≤ P99.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(raw []int64) bool {
		h := NewLatencyHist()
		for _, v := range raw {
			// Bounded magnitudes keep the float sum exact enough that the
			// mean cannot fall outside [Min, Max] by rounding.
			h.Record(v % 1e9)
		}
		s := h.Summary()
		if h.count == 0 {
			return s.Count == 0
		}
		return s.Min <= s.Mean && s.Mean <= s.Max && s.P50 <= s.P95 && s.P95 <= s.P99 &&
			!math.IsNaN(s.Mean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
