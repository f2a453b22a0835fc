package cq

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"clash/internal/bitkey"
)

// queriesInGroup collects VisitInGroup's walk of g.
func queriesInGroup(e *Engine, g bitkey.Group) []Query {
	var out []Query
	e.VisitInGroup(g, func(q Query) { out = append(out, q) })
	return out
}

// regionThenID reports whether a sorts strictly before b in VisitInGroup's
// order: by region prefix, then by ID.
func regionThenID(a, b Query) bool {
	if c := a.Region.Prefix.Compare(b.Region.Prefix); c != 0 {
		return c < 0
	}
	return a.ID < b.ID
}

// oracleBits keeps the oracle's key space small, so random regions, groups
// and event keys collide often.
const oracleBits = 6

// engineOracle drives an Engine and a map of the registered queries through
// the same operations and fails on the first disagreement.
type engineOracle struct {
	tb        testing.TB
	e         *Engine
	m         map[string]Query
	extracted []Query // the last ExtractGroup's queries, for re-registration
}

func newEngineOracle(tb testing.TB) *engineOracle {
	e, err := NewEngine(oracleBits)
	if err != nil {
		tb.Fatal(err)
	}
	return &engineOracle{tb: tb, e: e, m: make(map[string]Query)}
}

// oracleRegion maps a byte to a region: half the draws land in one shared
// region, so buckets hold many queries; the rest spread over every depth.
func oracleRegion(b byte) bitkey.Group {
	if b&1 == 0 {
		return bitkey.MustParseGroup("01")
	}
	d := int(b>>1) % (oracleBits + 1)
	return bitkey.NewGroup(bitkey.Key{Value: uint64(b>>4) & (1<<uint(d) - 1), Bits: d})
}

func oracleKey(b byte) bitkey.Key {
	return bitkey.Key{Value: uint64(b) & (1<<oracleBits - 1), Bits: oracleBits}
}

func oracleGroup(a, b byte) bitkey.Group {
	d := int(a) % (oracleBits + 2) // one past the key space: contains nothing
	return bitkey.NewGroup(bitkey.Key{Value: uint64(b) & (1<<uint(d) - 1), Bits: d})
}

// step applies one operation chosen by op, with a and b as its arguments,
// then cross-checks every read method.
func (o *engineOracle) step(op, a, b byte) {
	o.tb.Helper()
	switch op % 5 {
	case 0, 1: // register, or re-register a held ID
		q := Query{ID: fmt.Sprintf("q%02d", a%32), Region: oracleRegion(b)}
		if a&0x20 != 0 {
			q.Predicates = []Predicate{{Attr: "v", Op: OpGt, Value: float64(b % 4)}}
		}
		err := o.e.Register(q)
		if _, held := o.m[q.ID]; held {
			if !errors.Is(err, ErrDuplicateQuery) {
				o.tb.Fatalf("re-Register %s: err %v, want ErrDuplicateQuery", q.ID, err)
			}
			break
		}
		if err != nil {
			o.tb.Fatalf("Register %s: %v", q.ID, err)
		}
		o.m[q.ID] = q
	case 2:
		id := fmt.Sprintf("q%02d", a%32)
		err := o.e.Unregister(id)
		if _, held := o.m[id]; !held {
			if !errors.Is(err, ErrUnknownQuery) {
				o.tb.Fatalf("Unregister unknown %s: err %v, want ErrUnknownQuery", id, err)
			}
			break
		}
		if err != nil {
			o.tb.Fatalf("Unregister %s: %v", id, err)
		}
		delete(o.m, id)
	case 3:
		g := oracleGroup(a, b)
		want := o.inGroup(g)
		slices.SortFunc(want, compareIDs)
		got := o.e.ExtractGroup(g)
		o.same("ExtractGroup "+g.String(), got, want)
		for _, q := range want {
			delete(o.m, q.ID)
		}
		o.extracted = got
	case 4: // the receiving side of a transfer: the extracted set comes back
		for _, q := range o.extracted {
			if _, held := o.m[q.ID]; held {
				continue
			}
			if err := o.e.Register(q); err != nil {
				o.tb.Fatalf("re-Register extracted %s: %v", q.ID, err)
			}
			o.m[q.ID] = q
		}
		o.extracted = nil
	}
	o.check(oracleGroup(b, a), oracleKey(a^b))
}

// inGroup returns the held queries whose identifier key falls inside g, in
// VisitInGroup's order.
func (o *engineOracle) inGroup(g bitkey.Group) []Query {
	var out []Query
	for _, q := range o.m {
		if ik, err := q.IdentifierKey(oracleBits); err == nil && g.Contains(ik) {
			out = append(out, q)
		}
	}
	slices.SortFunc(out, func(a, b Query) int {
		if regionThenID(a, b) {
			return -1
		}
		return 1
	})
	return out
}

func (o *engineOracle) check(g bitkey.Group, key bitkey.Key) {
	o.tb.Helper()
	if got := o.e.Len(); got != len(o.m) {
		o.tb.Fatalf("Len %d, want %d", got, len(o.m))
	}
	all := make([]Query, 0, len(o.m))
	regions := make(map[bitkey.Key]bool)
	for _, q := range o.m {
		all = append(all, q)
		regions[q.Region.Prefix] = true
	}
	slices.SortFunc(all, compareIDs)
	o.same("All", o.e.All(), all)
	// An emptied region takes its trie node with it.
	if got := o.e.byRegion.Len(); got != len(regions) {
		o.tb.Fatalf("trie holds %d regions, want %d", got, len(regions))
	}

	want := o.inGroup(g)
	o.same("VisitInGroup "+g.String(), queriesInGroup(o.e, g), want)
	if got := o.e.CountInGroup(g); got != len(want) {
		o.tb.Fatalf("CountInGroup %v = %d, want %d", g, got, len(want))
	}

	ev := Event{Key: key, Attrs: map[string]float64{"v": float64(key.Value % 4)}}
	var matched []Query
	for _, q := range all { // all is in ID order: so must Match be
		if q.Matches(ev) {
			matched = append(matched, q)
		}
	}
	o.same("Match "+key.String(), o.e.Match(ev), matched)
}

func (o *engineOracle) same(what string, got, want []Query) {
	o.tb.Helper()
	if len(got) != len(want) {
		o.tb.Fatalf("%s: %d queries %v, want %d %v", what, len(got), ids(got), len(want), ids(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !got[i].Region.Equal(want[i].Region) || len(got[i].Predicates) != len(want[i].Predicates) {
			o.tb.Fatalf("%s: %v, want %v", what, ids(got), ids(want))
		}
	}
}

func ids(qs []Query) string {
	var b strings.Builder
	for i, q := range qs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(q.ID + "@" + q.Region.String())
	}
	return b.String()
}

// TestEngineMatchesMapOracle runs random Register, Unregister, ExtractGroup
// and re-Register sequences against a map of the registered queries and
// checks every read method after each step.
func TestEngineMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newEngineOracle(t)
		for i := 0; i < 1500; i++ {
			o.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}
}

// FuzzEngineOracle is TestEngineMatchesMapOracle over fuzzed operation
// streams: each three bytes are one operation and its two arguments.
func FuzzEngineOracle(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 3, 2, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 2, 0, 0, 2, 1, 0, 2, 2, 0})
	f.Add([]byte{0, 5, 7, 1, 5, 9, 0, 6, 11, 3, 0, 0, 4, 0, 0, 3, 7, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := newEngineOracle(t)
		for i := 0; i+2 < len(ops); i += 3 {
			o.step(ops[i], ops[i+1], ops[i+2])
		}
	})
}

// TestEngineConcurrentMatch runs Match beside Register, Unregister and
// ExtractGroup on shared regions. Region buckets are slices edited in place,
// so run it under -race: a Match that kept reading a bucket after releasing
// the lock, or returned one, would race the writer.
func TestEngineConcurrentMatch(t *testing.T) {
	e := mustEngine(t, 8)
	regions := []bitkey.Group{
		bitkey.MustParseGroup("01"), bitkey.MustParseGroup("0110"), bitkey.MustParseGroup("1"),
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ev := Event{Key: bitkey.MustNew(uint64(rng.Intn(256)), 8), Attrs: map[string]float64{"v": 1}}
				got := e.Match(ev)
				for i, q := range got {
					if !q.Region.Contains(ev.Key) || (i > 0 && got[i-1].ID >= q.ID) {
						t.Errorf("Match(%v) returned %v", ev.Key, ids(got))
						return
					}
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		id := fmt.Sprintf("q%02d", rng.Intn(40))
		switch rng.Intn(4) {
		case 0, 1:
			_ = e.Register(Query{ID: id, Region: regions[rng.Intn(len(regions))]})
		case 2:
			_ = e.Unregister(id)
		case 3:
			for _, q := range e.ExtractGroup(regions[rng.Intn(len(regions))]) {
				if rng.Intn(2) == 0 {
					_ = e.Register(q)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
