package load

import (
	"math"
	"testing"
	"testing/quick"

	"clash/internal/bitkey"
)

func TestLoadIsLinearInRateAndLogarithmicInQueries(t *testing.T) {
	m := DefaultModel(100)
	base := m.Load(Sample{DataRate: 10})
	double := m.Load(Sample{DataRate: 20})
	if math.Abs(double-2*base) > 1e-12 {
		t.Errorf("load not linear in rate: %g vs %g", double, 2*base)
	}
	q1 := m.Load(Sample{Queries: 1})
	q3 := m.Load(Sample{Queries: 3})
	q7 := m.Load(Sample{Queries: 7})
	// log2(1+q): 1, 2, 3 — equal increments for exponential query growth.
	if math.Abs((q3-q1)-(q7-q3)) > 1e-12 {
		t.Errorf("load not logarithmic in queries: %g %g %g", q1, q3, q7)
	}
}

func TestLoadCanExceedCapacity(t *testing.T) {
	m := DefaultModel(100)
	if got := m.Load(Sample{DataRate: 2500}); got <= 1 {
		t.Errorf("overdriven server should report load > 1, got %g", got)
	}
}

func TestThresholds(t *testing.T) {
	if OverloadFraction != 0.90 || UnderloadFraction != 0.54 {
		t.Errorf("thresholds = %g/%g, want paper values 0.90/0.54", OverloadFraction, UnderloadFraction)
	}
}

func TestMeterSnapshotResetsRates(t *testing.T) {
	m := NewMeterClock(10, nil)
	g := bitkey.MustParseGroup("011*")
	m.RecordPackets(g, 50)
	if got := m.Snapshot(); len(got) != 1 || got[g] != 5 {
		t.Fatalf("first snapshot = %v, want %v at rate 5 (50 packets over a 10 s window)", got, g)
	}
	if got := m.Snapshot(); len(got) != 0 {
		t.Fatalf("second snapshot = %v, want empty: rates reset each interval", got)
	}
}

func TestPropertyLoadMonotoneInInputs(t *testing.T) {
	m := DefaultModel(50)
	f := func(rate uint16, queries uint8, extraRate uint16, extraQ uint8) bool {
		a := Sample{DataRate: float64(rate), Queries: int(queries)}
		b := Sample{DataRate: a.DataRate + float64(extraRate), Queries: a.Queries + int(extraQ)}
		return m.Load(b) >= m.Load(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLoadNonNegative(t *testing.T) {
	m := DefaultModel(10)
	f := func(rate uint32, queries uint16) bool {
		return m.Load(Sample{DataRate: float64(rate), Queries: int(queries)}) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
