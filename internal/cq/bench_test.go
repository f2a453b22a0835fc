package cq

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"clash/internal/benchutil"
	"clash/internal/bitkey"
)

const (
	benchKeyBits = bitkey.MaxBits
	benchQueries = 1000
	benchEvents  = 1 << 14
)

func benchEngine(b *testing.B) (*Engine, []Event) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	e, err := NewEngine(benchKeyBits)
	if err != nil {
		b.Fatal(err)
	}
	// One query per region of a prefix-free partition: every event key falls
	// inside exactly one region, so Match exercises the full walk and the
	// predicate evaluation on each call.
	for i, g := range benchutil.PrefixFreeGroups(rng, benchKeyBits, benchQueries) {
		q := Query{
			ID:         fmt.Sprintf("q%04d", i),
			Region:     g,
			Predicates: []Predicate{{Attr: "speed", Op: OpGe, Value: 30}},
		}
		if err := e.Register(q); err != nil {
			b.Fatal(err)
		}
	}
	events := make([]Event, benchEvents)
	for i, k := range benchutil.RandomKeys(rng, benchKeyBits, benchEvents) {
		events[i] = Event{Key: k, Attrs: map[string]float64{"speed": float64(rng.Intn(60))}}
	}
	return e, events
}

func BenchmarkCQMatch(b *testing.B) {
	e, events := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Match(events[i%len(events)])
	}
}

func BenchmarkCQMatchParallel(b *testing.B) {
	e, events := benchEngine(b)
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1) * 7919
		for pb.Next() {
			e.Match(events[i%uint64(len(events))])
			i++
		}
	})
}

// BenchmarkQueryMarshal times the binary query record both ways: the
// encode appends into a reused buffer, as a replica push does, and the
// decode is a registration's.
func BenchmarkQueryMarshal(b *testing.B) {
	q := Query{
		ID:         "q-00042",
		Region:     bitkey.MustParseGroup("0110101*"),
		Predicates: []Predicate{{Attr: "speed", Op: OpGe, Value: 30.5}},
	}
	rec, err := q.AppendWire(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, err = q.AppendWire(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalQuery(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
