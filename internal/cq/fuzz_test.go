package cq

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"clash/internal/bitkey"
	"clash/internal/wirecodec"
)

// FuzzQueryMarshal holds the binary query record to its round trip for any
// ID, attribute name, operator, value and region: AppendWire fails exactly
// on a non-finite value or an operator outside OpEq..OpGe, returning its
// input unextended, and otherwise writes a record that starts with the
// format byte and that UnmarshalQuery gives back bit for bit, invalid UTF-8
// and -0 included, after any prefix.
func FuzzQueryMarshal(f *testing.F) {
	f.Add("q-0001", "speed", 50.0, int64(OpGt), uint64(0b011), uint8(3), uint8(1))
	f.Add("", "", 0.0, int64(0), uint64(0), uint8(0), uint8(0))
	f.Add("é<b>&amp;", "a\"b\\c", -0.0, int64(-3), uint64(0xffff), uint8(16), uint8(2))
	f.Add("\xff\xfe\x00", "\x01\x1f\x7f\u2028\u2029", 1e-7, int64(OpEq), uint64(1), uint8(64), uint8(2))
	f.Add("tab\there\nnl", "\b\f\r", 1e21, int64(OpLe), uint64(5), uint8(7), uint8(1))
	f.Add("big", "tiny", 5e-324, int64(OpNe), uint64(0), uint8(1), uint8(1))
	f.Add("max", "min", math.MaxFloat64, int64(OpGe), uint64(2), uint8(2), uint8(2))
	f.Add("edge", "lo", 9.999999e-7, int64(OpLt), uint64(0), uint8(5), uint8(1))
	f.Add("edge", "hi", 999999999999999999999.0, int64(OpLt), uint64(0), uint8(5), uint8(1))
	f.Add("frac", "x", -123.456e-5, int64(OpLt), uint64(0), uint8(5), uint8(1))
	f.Add("nan", "x", math.NaN(), int64(OpEq), uint64(0), uint8(1), uint8(1))
	f.Add("inf", "x", math.Inf(-1), int64(OpEq), uint64(0), uint8(1), uint8(2))
	f.Add(strings.Repeat("i", 123), "x", 1.5, int64(OpGt), uint64(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, id, attr string, value float64, op int64, prefix uint64, bits, preds uint8) {
		depth := int(bits) % (bitkey.MaxBits + 1)
		if depth < bitkey.MaxBits {
			prefix &= 1<<uint(depth) - 1
		}
		q := Query{ID: id, Region: bitkey.NewGroup(bitkey.Key{Value: prefix, Bits: depth})}
		encodes := true
		for i := 0; i < int(preds%3); i++ {
			// A second predicate flips the sign, renames the attribute and
			// moves the operator, so negative values are covered too.
			p := Predicate{Attr: attr + string(rune('a'+i)), Op: Op(op) + Op(i), Value: value * float64(1-2*i)}
			q.Predicates = append(q.Predicates, p)
			encodes = encodes && p.Op >= OpEq && p.Op <= OpGe && !math.IsNaN(p.Value) && !math.IsInf(p.Value, 0)
		}

		rec, err := q.AppendWire([]byte("prefix"))
		if !encodes {
			if err == nil || string(rec) != "prefix" {
				t.Fatalf("AppendWire = %q, %v; want the input back and an error", rec, err)
			}
			return
		}
		if err != nil || !bytes.HasPrefix(rec, []byte("prefix")) {
			t.Fatalf("AppendWire = %q, %v; want the record appended", rec, err)
		}
		rec = rec[len("prefix"):]
		if rec[0] != wirecodec.QueryFormat {
			t.Fatalf("record starts with %#x, want the format byte: %x", rec[0], rec)
		}
		back, err := UnmarshalQuery(rec)
		if err != nil {
			t.Fatalf("UnmarshalQuery(%x): %v", rec, err)
		}
		if back.ID != q.ID || !back.Region.Equal(q.Region) || len(back.Predicates) != len(q.Predicates) {
			t.Fatalf("round trip %+v, want %+v", back, q)
		}
		for i, p := range back.Predicates {
			w := q.Predicates[i]
			if p.Attr != w.Attr || p.Op != w.Op || math.Float64bits(p.Value) != math.Float64bits(w.Value) {
				t.Fatalf("predicate %d round trip %+v, want %+v", i, p, w)
			}
		}
	})
}

// FuzzPredicateBytes holds the attribute-section path of Query.Matches to its
// map path: for any attribute list, a query gives the same result on an event
// carrying the list's wire section as on one carrying the map built from it.
// The list is the comma-separated names, cut to n%9 entries (0 included), with
// values taken 8 bytes at a time from vals (big-endian IEEE-754 bits) or the
// entry's index once vals runs out; names may repeat (the last value wins in
// both) or be empty. Every operator, an invalid one, a missing name and a
// conjunction of all the list's names are evaluated.
func FuzzPredicateBytes(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, v := range fs {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("speed,fuel,lat", bits(80, 0.4, -12.25), uint8(3), 50.0)
	f.Add("speed,speed", bits(10, 90), uint8(2), 50.0)
	f.Add("", []byte(nil), uint8(0), 0.0)
	f.Add("", bits(7), uint8(1), 7.0)
	f.Add(",a,,a", bits(1, 2, 3, 4), uint8(4), 3.0)
	f.Add("n,p,m,z", bits(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)), uint8(4), 0.0)
	f.Add("x", bits(math.NaN()), uint8(1), math.NaN())
	f.Add("x,y", bits(1), uint8(8), math.Inf(-1))
	f.Fuzz(func(t *testing.T, names string, vals []byte, n uint8, value float64) {
		list := strings.Split(names, ",")
		if k := int(n) % 9; k < len(list) {
			list = list[:k]
		}
		section := wirecodec.AppendInt(nil, len(list))
		attrs := make(map[string]float64, len(list))
		for i, name := range list {
			v := float64(i)
			if len(vals) >= 8*(i+1) {
				v = math.Float64frombits(binary.BigEndian.Uint64(vals[8*i:]))
			}
			section = wirecodec.AppendString(section, name)
			section = wirecodec.AppendFloat64(section, v)
			attrs[name] = v
		}
		key := bitkey.Key{Value: 0b1011, Bits: 4}
		byMap := Event{Key: key, Attrs: attrs}
		bySection := Event{Key: key, AttrSection: section}

		for name, want := range attrs {
			got, ok := wirecodec.LookupAttr(section, name)
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("LookupAttr(%q) = %v, %v; want %v", name, got, ok, want)
			}
		}
		names = strings.Join(list, ",")
		check := func(preds []Predicate) {
			t.Helper()
			q := Query{ID: "q", Region: bitkey.MustParseGroup("10*"), Predicates: preds}
			if m, s := q.Matches(byMap), q.Matches(bySection); m != s {
				t.Fatalf("attrs %s = %v: %v matches %v on the map, %v on the section", names, attrs, preds, m, s)
			}
		}
		all := make([]Predicate, 0, len(list))
		for _, name := range append(list, "missing-attr") {
			for op := OpEq; op <= OpGe+1; op++ {
				check([]Predicate{{Attr: name, Op: op, Value: value}})
				check([]Predicate{{Attr: name, Op: op, Value: attrs[name]}})
			}
			all = append(all, Predicate{Attr: name, Op: OpGe, Value: value})
		}
		check(all[:len(all)-1])
		check(all)
	})
}
