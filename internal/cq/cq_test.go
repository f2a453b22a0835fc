package cq

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clash/internal/bitkey"
	"clash/internal/wirecodec"
)

func mustEngine(t *testing.T, bits int) *Engine {
	t.Helper()
	e, err := NewEngine(bits)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPredicateEval evaluates each operator through Query.Matches, with the
// event's attributes given as a map and as a wire attribute section.
func TestPredicateEval(t *testing.T) {
	attrs := map[string]float64{"speed": 80, "fuel": 0.4}
	region := bitkey.MustParseGroup("01*")
	key := bitkey.Key{Value: 0b0110, Bits: 4}
	events := map[string]Event{
		"map":     {Key: key, Attrs: attrs},
		"section": {Key: key, AttrSection: wirecodec.AppendAttrs(nil, attrs)},
	}
	tests := []struct {
		p    Predicate
		want bool
	}{
		{Predicate{"speed", OpEq, 80}, true},
		{Predicate{"speed", OpNe, 80}, false},
		{Predicate{"speed", OpGt, 70}, true},
		{Predicate{"speed", OpGe, 80}, true},
		{Predicate{"speed", OpLt, 80}, false},
		{Predicate{"fuel", OpLe, 0.4}, true},
		{Predicate{"missing", OpEq, 1}, false},
		{Predicate{"speed", Op(99), 80}, false},
	}
	for name, ev := range events {
		for _, tt := range tests {
			q := Query{ID: "q", Region: region, Predicates: []Predicate{tt.p}}
			if got := q.Matches(ev); got != tt.want {
				t.Errorf("%s: %s %s %g = %v, want %v", name, tt.p.Attr, tt.p.Op, tt.p.Value, got, tt.want)
			}
		}
	}
}

func TestQueryValidate(t *testing.T) {
	good := Query{ID: "q1", Region: bitkey.MustParseGroup("0110*"),
		Predicates: []Predicate{{"speed", OpGt, 100}}}
	if err := good.Validate(24); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := []Query{
		{ID: "", Region: bitkey.MustParseGroup("01*")},
		{ID: "q", Region: bitkey.MustParseGroup("0101010101*")},
		{ID: "q", Region: bitkey.MustParseGroup("01*"), Predicates: []Predicate{{"", OpEq, 1}}},
		{ID: "q", Region: bitkey.MustParseGroup("01*"), Predicates: []Predicate{{"a", Op(99), 1}}},
	}
	for i, q := range bad {
		if err := q.Validate(8); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("bad query %d err = %v, want ErrInvalidQuery", i, err)
		}
	}
}

func TestQueryMarshalRoundTrip(t *testing.T) {
	q := Query{
		ID:         "q42",
		Region:     bitkey.MustParseGroup("011010*"),
		Predicates: []Predicate{{"speed", OpGe, 120}, {"lane", OpEq, 2}},
	}
	data, err := q.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != wirecodec.QueryFormat {
		t.Fatalf("record starts with %#x, want the format byte", data[0])
	}
	got, err := UnmarshalQuery(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Errorf("round trip %+v, want %+v", got, q)
	}
	// A JSON text is not a query record.
	js := []byte(`{"id":"q42","region":"011010*","predicates":[{"attr":"speed","op":6,"value":120},{"attr":"lane","op":1,"value":2}]}`)
	if _, err := UnmarshalQuery(js); err == nil {
		t.Error("JSON record accepted")
	}
	if _, err := UnmarshalQuery([]byte("{bad")); err == nil {
		t.Error("garbage accepted")
	}
	for _, bad := range []Query{
		{ID: "nan", Predicates: []Predicate{{"a", OpEq, math.NaN()}}},
		{ID: "inf", Predicates: []Predicate{{"a", OpEq, math.Inf(1)}}},
		{ID: "op", Predicates: []Predicate{{"a", Op(7), 1}}},
	} {
		if out, err := bad.AppendWire([]byte("x")); err == nil || string(out) != "x" {
			t.Errorf("AppendWire(%s) = %q, %v; want the input back and an error", bad.ID, out, err)
		}
	}
}

// TestUnmarshalQueryAllocs holds a binary decode to what the query keeps:
// its ID, its predicate slice and one string per attribute name.
func TestUnmarshalQueryAllocs(t *testing.T) {
	q := Query{ID: "q-00042", Region: bitkey.MustParseGroup("0110101*"),
		Predicates: []Predicate{{Attr: "speed", Op: OpGt, Value: 50}}}
	rec, err := q.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalQuery(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("UnmarshalQuery allocates %v times for one predicate, want <= 3", allocs)
	}
}

// TestUnmarshalQueryRejects tables hostile binary records: each must fail
// the decoder and the in-place validator alike.
func TestUnmarshalQueryRejects(t *testing.T) {
	head := func(preds int) []byte {
		b := []byte{wirecodec.QueryFormat}
		b = wirecodec.AppendString(b, "q")
		b = wirecodec.AppendInt(b, 3)
		b = wirecodec.AppendUvarint(b, 0b011)
		return wirecodec.AppendInt(b, preds)
	}
	pred := func(b []byte, op byte, v float64) []byte {
		b = wirecodec.AppendString(b, "a")
		return wirecodec.AppendFloat64(append(b, op), v)
	}
	good := pred(head(1), byte(OpGt), 1)
	if _, err := UnmarshalQuery(good); err != nil {
		t.Fatalf("well-formed record rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		rec  []byte
		// valid is true where the record is well formed and only its
		// meaning is wrong: the validator passes it, the decoder refuses.
		valid bool
	}{
		{"empty", nil, false},
		{"format byte", append([]byte{0x02}, good[1:]...), false},
		{"JSON text", []byte(`{"id":"q","region":"011*"}`), false},
		{"count beyond remaining/10", append(head(2), good[len(head(1)):]...), false},
		{"huge count", head(1 << 30), false},
		{"truncated float", good[:len(good)-3], false},
		{"truncated op", good[:len(head(1))+2], false},
		{"truncated id", head(0)[:2], false},
		{"bad op byte", pred(head(1), 0, 1), true},
		{"op beyond range", pred(head(1), byte(OpGe)+1, 1), true},
		{"NaN value", pred(head(1), byte(OpEq), math.NaN()), true},
		{"region overflow", append(append([]byte{wirecodec.QueryFormat, 1, 'q', 2}, 0b111), 0), true},
	} {
		if _, err := UnmarshalQuery(tc.rec); err == nil {
			t.Errorf("%s: UnmarshalQuery accepted %x", tc.name, tc.rec)
		}
		r := wirecodec.NewReader(wirecodec.AppendQueryRecord(nil, tc.rec))
		r.QueryRecord()
		if (r.Err() == nil) != tc.valid {
			t.Errorf("%s: Reader.QueryRecord error %v, want valid=%t", tc.name, r.Err(), tc.valid)
		}
	}
}

func TestEngineRegisterUnregister(t *testing.T) {
	e := mustEngine(t, 16)
	q := Query{ID: "q1", Region: bitkey.MustParseGroup("0110*")}
	if err := e.Register(q); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(q); !errors.Is(err, ErrDuplicateQuery) {
		t.Errorf("duplicate register err = %v", err)
	}
	if e.Len() != 1 {
		t.Errorf("Len = %d, want 1", e.Len())
	}
	if err := e.Unregister("q1"); err != nil {
		t.Fatal(err)
	}
	if err := e.Unregister("q1"); !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("double unregister err = %v", err)
	}
	if e.Len() != 0 {
		t.Errorf("Len = %d, want 0", e.Len())
	}
	if _, err := NewEngine(0); err == nil {
		t.Error("NewEngine(0) succeeded, want error")
	}
}

func TestEngineGet(t *testing.T) {
	e, err := NewEngine(8)
	if err != nil {
		t.Fatal(err)
	}
	a := Query{ID: "a", Region: bitkey.MustParseGroup("01")}
	b := Query{ID: "b", Region: bitkey.MustParseGroup("01"),
		Predicates: []Predicate{{Attr: "speed", Op: OpGt, Value: 5}}}
	for _, q := range []Query{b, a} {
		if err := e.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := e.Get("b"); !ok || got.ID != "b" || len(got.Predicates) != 1 {
		t.Errorf("Get(b) = %+v, %v", got, ok)
	}
	if err := e.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Get("b"); ok {
		t.Error("Get found an unregistered query")
	}
	if got, ok := e.Get("a"); !ok || got.ID != "a" {
		t.Errorf("Get(a) = %+v, %v", got, ok)
	}
}

func TestEngineMatchRegionAndPredicates(t *testing.T) {
	e := mustEngine(t, 8)
	queries := []Query{
		{ID: "region-only", Region: bitkey.MustParseGroup("0110*")},
		{ID: "speeders", Region: bitkey.MustParseGroup("01*"),
			Predicates: []Predicate{{"speed", OpGt, 100}}},
		{ID: "elsewhere", Region: bitkey.MustParseGroup("11*")},
		{ID: "exact", Region: bitkey.MustParseGroup("01101010*")},
	}
	for _, q := range queries {
		if err := e.Register(q); err != nil {
			t.Fatal(err)
		}
	}

	ev := Event{Key: bitkey.MustParse("01101010"), Attrs: map[string]float64{"speed": 130}}
	got := e.Match(ev)
	wantIDs := []string{"exact", "region-only", "speeders"}
	if len(got) != len(wantIDs) {
		t.Fatalf("matched %d queries (%v), want %d", len(got), got, len(wantIDs))
	}
	for i, id := range wantIDs {
		if got[i].ID != id {
			t.Errorf("match[%d] = %s, want %s", i, got[i].ID, id)
		}
	}

	slow := Event{Key: bitkey.MustParse("01101010"), Attrs: map[string]float64{"speed": 50}}
	got = e.Match(slow)
	if len(got) != 2 {
		t.Fatalf("slow event matched %v, want region-only and exact", got)
	}

	outside := Event{Key: bitkey.MustParse("10000000"), Attrs: map[string]float64{"speed": 200}}
	if got := e.Match(outside); len(got) != 0 {
		t.Errorf("event outside all regions matched %v", got)
	}

	// AppendMatch keeps what dst holds, sorts only what it appends, and
	// matches into dst's array while the matches fit.
	var buf [4]Query
	dst := append(buf[:0], Query{ID: "zz-kept"})
	got = e.AppendMatch(dst, ev)
	if len(got) != 4 || got[0].ID != "zz-kept" || &got[0] != &buf[0] {
		t.Fatalf("AppendMatch = %v, want zz-kept then the 3 matches in dst's array", got)
	}
	for i, id := range wantIDs {
		if got[i+1].ID != id {
			t.Errorf("AppendMatch[%d] = %s, want %s", i+1, got[i+1].ID, id)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { e.AppendMatch(buf[:0], ev) }); allocs != 0 {
		t.Errorf("AppendMatch into a large enough array allocates %v, want 0", allocs)
	}
}

func TestEngineExtractGroupMigratesState(t *testing.T) {
	e := mustEngine(t, 8)
	for i := 0; i < 20; i++ {
		region := "0110*"
		if i%2 == 1 {
			region = "0111*"
		}
		q := Query{ID: fmt.Sprintf("q%02d", i), Region: bitkey.MustParseGroup(region)}
		if err := e.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	// Splitting "011*" transfers the right child "0111*": exactly the odd
	// queries move.
	if n := e.CountInGroup(bitkey.MustParseGroup("0111*")); n != 10 {
		t.Fatalf("CountInGroup = %d, want 10", n)
	}
	moved := e.ExtractGroup(bitkey.MustParseGroup("0111*"))
	if len(moved) != 10 {
		t.Fatalf("ExtractGroup = %d, want 10", len(moved))
	}
	for _, q := range moved {
		if q.Region.String() != "0111*" {
			t.Errorf("moved query %s has region %v", q.ID, q.Region)
		}
	}
	if e.Len() != 10 {
		t.Errorf("remaining queries = %d, want 10", e.Len())
	}
	// Extracting again finds nothing.
	if again := e.ExtractGroup(bitkey.MustParseGroup("0111*")); len(again) != 0 {
		t.Errorf("second extract = %d, want 0", len(again))
	}
	// The extracted queries can be re-registered on the receiving server.
	other := mustEngine(t, 8)
	for _, q := range moved {
		if err := other.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	if other.Len() != 10 {
		t.Errorf("receiver has %d queries, want 10", other.Len())
	}
}

func TestEngineMatchAfterMigrationPreservesSemantics(t *testing.T) {
	// Property: splitting the query set across two engines by key group and
	// unioning their matches gives the same result as one engine.
	const bits = 12
	rng := rand.New(rand.NewSource(11))
	whole := mustEngine(t, bits)
	var queries []Query
	for i := 0; i < 200; i++ {
		depth := 2 + rng.Intn(6)
		prefix := bitkey.MustNew(rng.Uint64()&(1<<depth-1), depth)
		q := Query{ID: fmt.Sprintf("q%03d", i), Region: bitkey.NewGroup(prefix)}
		if rng.Intn(2) == 0 {
			q.Predicates = []Predicate{{"v", OpGt, float64(rng.Intn(100))}}
		}
		queries = append(queries, q)
		if err := whole.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	left := mustEngine(t, bits)
	right := mustEngine(t, bits)
	for _, q := range queries {
		vk, err := q.IdentifierKey(bits)
		if err != nil {
			t.Fatal(err)
		}
		target := left
		if vk.Bit(0) == 1 {
			target = right
		}
		if err := target.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		ev := Event{
			Key:   bitkey.MustNew(rng.Uint64()&(1<<bits-1), bits),
			Attrs: map[string]float64{"v": float64(rng.Intn(100))},
		}
		want := whole.Match(ev)
		gotLeft := left.Match(ev)
		gotRight := right.Match(ev)
		got := make(map[string]bool, len(gotLeft)+len(gotRight))
		for _, q := range gotLeft {
			got[q.ID] = true
		}
		for _, q := range gotRight {
			got[q.ID] = true
		}
		wantSet := make(map[string]bool, len(want))
		for _, q := range want {
			wantSet[q.ID] = true
		}
		// Note: a query on one partition can still match an event whose key
		// lies in the other partition only if its region spans both — which
		// cannot happen here because partitioning is by the region's own
		// virtual key bit 0 and regions have depth ≥ 2... except depth ≥ 1.
		// So the union must equal the whole engine's matches restricted to
		// queries whose region actually contains the key.
		for id := range wantSet {
			if !got[id] {
				t.Fatalf("event %v: query %s matched by whole engine but not by partitions", ev.Key, id)
			}
		}
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", Op(0): "?"}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// TestCountInGroupMatchesCollect checks CountInGroup and VisitInGroup
// against a brute-force scan over identifier keys, for regions both deeper
// and shallower than the group (the latter count only when their zero
// padding lands inside it).
func TestCountInGroupMatchesCollect(t *testing.T) {
	const bits = 8
	rng := rand.New(rand.NewSource(5))
	e := mustEngine(t, bits)
	var all []Query
	for i := 0; i < 200; i++ {
		d := rng.Intn(bits + 1)
		q := Query{ID: fmt.Sprintf("q%03d", i), Region: bitkey.NewGroup(bitkey.MustNew(uint64(rng.Intn(1<<d)), d))}
		if err := e.Register(q); err != nil {
			t.Fatal(err)
		}
		all = append(all, q)
	}
	for d := 0; d <= bits+1; d++ {
		for v := 0; v < 1<<d && v < 1<<bits; v += 1 + rng.Intn(3) {
			g := bitkey.NewGroup(bitkey.Key{Value: uint64(v), Bits: d})
			want := 0
			for _, q := range all {
				if ik, err := q.IdentifierKey(bits); err == nil && g.Contains(ik) {
					want++
				}
			}
			got := queriesInGroup(e, g)
			if n := e.CountInGroup(g); n != want || len(got) != want {
				t.Fatalf("group %v: CountInGroup %d, VisitInGroup %d, want %d", g, n, len(got), want)
			}
			for i := 1; i < len(got); i++ {
				if !regionThenID(got[i-1], got[i]) {
					t.Fatalf("group %v: VisitInGroup not ordered by region, then ID, at %d", g, i)
				}
			}
		}
	}
}
