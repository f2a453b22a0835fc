package invariant

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clash/internal/bitkey"
)

func groups(names ...string) []bitkey.Group {
	gs := make([]bitkey.Group, len(names))
	for i, n := range names {
		gs[i] = bitkey.MustParseGroup(n)
	}
	return gs
}

func kinds(vs []Violation) []Kind {
	var ks []Kind
	for _, v := range vs {
		ks = append(ks, v.Kind)
	}
	return ks
}

// chain64 tiles the 64-bit key space with 0*, 10*, 110*, ... down to the two
// depth-64 groups 1...10 and 1...11.
func chain64() []bitkey.Group {
	var gs []bitkey.Group
	ones := uint64(0)
	for d := 1; d <= 64; d++ {
		gs = append(gs, bitkey.Group{Prefix: bitkey.Key{Value: ones << 1, Bits: d}})
		ones = ones<<1 | 1
	}
	return append(gs, bitkey.Group{Prefix: bitkey.Key{Value: ones, Bits: 64}})
}

func TestRules(t *testing.T) {
	chain := chain64()
	cases := []struct {
		name string
		got  []Violation
		want []Kind
	}{
		{"exact partition", Tiling(groups("0", "10", "110", "111")), nil},
		{"missing last group", Tiling(groups("0", "10")), []Kind{TailGap}},
		{"missing middle group", Tiling(groups("00", "1")), []Kind{Gap}},
		{"missing first group", Tiling(groups("1")), []Kind{Gap}},
		{"no groups", Tiling(nil), []Kind{TailGap}},
		{"nested overlap", Tiling(groups("0", "01", "1")), []Kind{Overlap}},
		{"nested overlap, equal starts", Tiling(groups("00", "0", "1")), []Kind{Overlap}},
		{"nested overlap, no spurious gap", Tiling(groups("0", "010", "1")), []Kind{Overlap}},
		{"duplicate group", Tiling(groups("0", "1", "1")), []Kind{Overlap}},
		{"root alone", Tiling(groups("*")), nil},
		{"root beside others", Tiling(groups("0", "*", "1")), []Kind{Overlap, Overlap}},
		{"depth 64 chain", Tiling(chain), nil},
		{"depth 64 chain, last key missing", Tiling(chain[:64]), []Kind{TailGap}},
		{"depth 64 chain, duplicate last key", Tiling(append(slices.Clip(chain), chain[64])), []Kind{Overlap}},
		{"prefix-free ignores gaps", PrefixFree(groups("00", "11")), nil},
		{"prefix-free flags nesting", PrefixFree(groups("011", "0101", "0110")), []Kind{Overlap}},
		{"ring consistent", RingOrder([]Member{{"a", 10, "b"}, {"b", 20, "c"}, {"c", 30, "a"}}), nil},
		{"ring in any input order", RingOrder([]Member{{"c", 30, "a"}, {"a", 10, "b"}, {"b", 20, "c"}}), nil},
		{"ring skips a member", RingOrder([]Member{{"a", 10, "c"}, {"b", 20, "c"}, {"c", 30, "a"}}), []Kind{Successor}},
		{"ring member without successor", RingOrder([]Member{{"a", 10, ""}, {"b", 20, "a"}}), []Kind{Successor}},
		{"lone member is its own successor", RingOrder([]Member{{"a", 10, "a"}}), nil},
		{"lone member pointing elsewhere", RingOrder([]Member{{"a", 10, "b"}}), []Kind{Successor}},
		{"empty ring", RingOrder(nil), nil},
	}
	for _, c := range cases {
		if got := kinds(c.got); !slices.Equal(got, c.want) {
			t.Errorf("%s: kinds %v, want %v (%v)", c.name, got, c.want, c.got)
		}
	}
}

func TestViolationIndexes(t *testing.T) {
	gs := groups("1", "0", "01", "1")
	vs := Tiling(gs)
	if len(vs) != 2 {
		t.Fatalf("got %v, want two overlaps", vs)
	}
	for _, v := range vs {
		if v.Kind != Overlap || !gs[v.With].ContainsGroup(gs[v.At]) || v.At == v.With {
			t.Errorf("%+v: group %d should lie inside group %d", v, v.At, v.With)
		}
	}
	if v := RingOrder([]Member{{"b", 2, "a"}, {"a", 1, "c"}}); len(v) != 1 || v[0].At != 1 ||
		!strings.Contains(v[0].Detail, `expects "b"`) {
		t.Errorf("ring violation %+v: want member 1 expecting b", v)
	}
}

// oracle counts owners key by key over a bits-bit key space. A group
// overlaps when another group owns its first key and is shallower, or is an
// earlier copy of it; holes counts maximal runs of keys with no owner.
func oracle(bits int, gs []bitkey.Group) (exact bool, overlaps, holes int) {
	exact = true
	owners := make([]int, 1<<bits)
	for k := range owners {
		key := bitkey.Key{Value: uint64(k), Bits: bits}
		for _, g := range gs {
			if g.Contains(key) {
				owners[k]++
			}
		}
		if owners[k] != 1 {
			exact = false
		}
		if owners[k] == 0 && (k == 0 || owners[k-1] != 0) {
			holes++
		}
	}
	for i, g := range gs {
		first := bitkey.Key{Value: g.Prefix.Value << (bits - g.Depth()), Bits: bits}
		for j, o := range gs {
			if j != i && o.Contains(first) && (o.Depth() < g.Depth() || o.Depth() == g.Depth() && j < i) {
				overlaps++
				break
			}
		}
	}
	return exact, overlaps, holes
}

// checkOracle compares Tiling and PrefixFree on gs with the oracle.
func checkOracle(t *testing.T, bits int, gs []bitkey.Group) {
	t.Helper()
	exact, overlaps, holes := oracle(bits, gs)
	vs := Tiling(gs)
	var gotOverlaps, gotHoles int
	for _, v := range vs {
		switch v.Kind {
		case Overlap:
			gotOverlaps++
		case Gap, TailGap:
			gotHoles++
		}
	}
	if (len(vs) == 0) != exact || gotOverlaps != overlaps || gotHoles != holes {
		t.Fatalf("%d bits, groups %v: exact=%v overlaps=%d holes=%d, oracle says %v/%d/%d (%v)",
			bits, gs, len(vs) == 0, gotOverlaps, gotHoles, exact, overlaps, holes, vs)
	}
	if pf := PrefixFree(gs); len(pf) != overlaps {
		t.Fatalf("%d bits, groups %v: PrefixFree reports %v, oracle counts %d overlaps", bits, gs, pf, overlaps)
	}
}

// splitTree returns the leaves of a random split tree over a bits-bit space.
func splitTree(rng *rand.Rand, bits int) []bitkey.Group {
	leaves := []bitkey.Group{{}}
	for n := rng.Intn(12); n > 0; n-- {
		i := rng.Intn(len(leaves))
		l, r, err := leaves[i].Split()
		if err != nil || l.Depth() > bits {
			continue
		}
		leaves = append(append(leaves[:i:i], l, r), leaves[i+1:]...)
	}
	return leaves
}

func TestTilingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		bits := rng.Intn(11)
		gs := splitTree(rng, bits)
		for n := rng.Intn(4); n > 0 && len(gs) > 0; n-- {
			i := rng.Intn(len(gs))
			switch rng.Intn(3) {
			case 0: // delete a leaf
				gs = append(gs[:i], gs[i+1:]...)
			case 1: // duplicate a leaf
				gs = append(gs, gs[i])
			case 2: // insert an ancestor
				p, _ := gs[i].Prefix.Prefix(rng.Intn(gs[i].Depth() + 1))
				gs = append(gs, bitkey.NewGroup(p))
			}
		}
		rng.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		checkOracle(t, bits, gs)
	}
}

// FuzzTiling decodes a key length of at most 10 bits and a group list from
// the input and compares both tiling checks with the oracle.
func FuzzTiling(f *testing.F) {
	f.Add([]byte{4, 1, 0, 2, 2, 3, 6, 3, 7})
	f.Add([]byte{3, 0, 0})
	f.Add([]byte{10, 1, 0, 1, 1, 1, 1, 2, 0})
	f.Add([]byte{2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		bits := int(data[0]) % 11
		var gs []bitkey.Group
		for rest := data[1:]; len(rest) >= 2 && len(gs) < 64; rest = rest[2:] {
			d := int(rest[0]) % (bits + 1)
			v := (uint64(rest[0])<<8 | uint64(rest[1])) & (1<<d - 1)
			gs = append(gs, bitkey.Group{Prefix: bitkey.Key{Value: v, Bits: d}})
		}
		checkOracle(t, bits, gs)
	})
}
