package main

import (
	"testing"
	"time"

	"clash/internal/bitkey"
)

// TestLayoutDeterminism sets every workload up twice untraced and once
// traced with one seed (and runs one episode of the episodic workload) and
// requires the same layout digest each time: the benchmark's work must not
// depend on timing, and the timing decorator must not change it.
func TestLayoutDeterminism(t *testing.T) {
	const seed = 7
	in, err := makeInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for run := 0; run < 3; run++ {
				var tg *tracing
				if run == 2 {
					tg = newTracing(!w.tcp)
				}
				s, err := w.setup(in, seed, tg)
				if err != nil {
					t.Fatal(err)
				}
				d := s.digest
				if w.episodic {
					s.startTimed(0, 0)
					r := recorder{sl: newSlicer(now(), 0, 0, opTail)}
					w.drive(s, time.Time{}, &r)
					if r.failed != 0 {
						t.Errorf("%d of %d ops failed", r.failed, r.ops)
					}
					d += " | " + s.c.digest()
				}
				if w.tcp {
					s.settle(s.inlineTotal())
				}
				for _, p := range s.c.check(s.registered) {
					t.Error(p)
				}
				if got, want := s.read.Load(), s.inlineTotal(); got != int64(want) {
					t.Errorf("subscribers read %d matches, publishes reported %d", got, want)
				}
				s.close()
				digests = append(digests, d)
			}
			for _, d := range digests[1:] {
				if d != digests[0] {
					t.Errorf("layout digests differ: %q vs %q", d, digests[0])
				}
			}
			t.Log(digests[0])
		})
	}
}

func TestTiles(t *testing.T) {
	g := func(v uint64, bits int) bitkey.Group { return bitkey.NewGroup(bitkey.Key{Value: v, Bits: bits}) }
	for _, tc := range []struct {
		name   string
		groups []bitkey.Group
		ok     bool
	}{
		{"roots", []bitkey.Group{g(0, 2), g(1, 2), g(2, 2), g(3, 2)}, true},
		{"split", []bitkey.Group{g(0, 1), g(2, 2), g(6, 3), g(7, 3)}, true},
		{"gap", []bitkey.Group{g(0, 1), g(2, 2)}, false},
		{"overlap", []bitkey.Group{g(0, 1), g(0, 2), g(1, 1)}, false},
		{"duplicate", []bitkey.Group{g(0, 1), g(1, 1), g(1, 1)}, false},
	} {
		if err := tiles(tc.groups); (err == nil) != tc.ok {
			t.Errorf("%s: tiles = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%g) = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	if b := h.beyond(0.99); b != 1000 {
		t.Errorf("beyond(0.99) = %d, want 1000", b)
	}
}
