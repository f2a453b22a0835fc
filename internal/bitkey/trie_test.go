package bitkey

import (
	"math/rand"
	"sort"
	"testing"
)

func TestTriePutGetDelete(t *testing.T) {
	tr := NewTrie[string]()
	if _, ok := tr.Get(MustParse("0110")); ok {
		t.Error("empty trie returned a value")
	}
	prefixes := []string{"0", "01", "0110", "0111", "1", "10110", "101"}
	for i, p := range prefixes {
		if tr.Put(MustParse(p), p) {
			t.Errorf("Put(%q) reported replace on first insert", p)
		}
		if tr.Len() != i+1 {
			t.Errorf("Len = %d after %d inserts", tr.Len(), i+1)
		}
	}
	for _, p := range prefixes {
		v, ok := tr.Get(MustParse(p))
		if !ok || v != p {
			t.Errorf("Get(%q) = %q,%v", p, v, ok)
		}
	}
	if _, ok := tr.Get(MustParse("011")); ok {
		t.Error("Get returned a value for an unstored interior prefix")
	}
	if !tr.Put(MustParse("01"), "replaced") {
		t.Error("Put did not report replacement")
	}
	if v, _ := tr.Get(MustParse("01")); v != "replaced" {
		t.Errorf("value after replace = %q", v)
	}
	if tr.Len() != len(prefixes) {
		t.Errorf("Len changed on replace: %d", tr.Len())
	}
	for i, p := range prefixes {
		v, ok := tr.Delete(MustParse(p))
		if !ok {
			t.Fatalf("Delete(%q) missed", p)
		}
		if p == "01" {
			if v != "replaced" {
				t.Errorf("Delete(%q) returned %q", p, v)
			}
		} else if v != p {
			t.Errorf("Delete(%q) returned %q", p, v)
		}
		if tr.Len() != len(prefixes)-i-1 {
			t.Errorf("Len = %d after deleting %d", tr.Len(), i+1)
		}
		if _, ok := tr.Get(MustParse(p)); ok {
			t.Errorf("Get(%q) found deleted prefix", p)
		}
	}
	if _, ok := tr.Delete(MustParse("0")); ok {
		t.Error("Delete on empty trie reported success")
	}
}

func TestTrieRootPrefix(t *testing.T) {
	tr := NewTrie[int]()
	tr.Put(Key{}, 7) // the depth-0 group "*"
	tr.Put(MustParse("11"), 9)
	if p, v, ok := tr.LongestMatch(MustParse("0000")); !ok || v != 7 || p.Bits != 0 {
		t.Errorf("LongestMatch under root-only cover = %v %d %v", p, v, ok)
	}
	if p, v, ok := tr.LongestMatch(MustParse("1100")); !ok || v != 9 || p.String() != "11" {
		t.Errorf("LongestMatch = %v %d %v, want 11", p, v, ok)
	}
	if v, ok := tr.Delete(Key{}); !ok || v != 7 {
		t.Errorf("Delete(root) = %d,%v", v, ok)
	}
	if _, _, ok := tr.LongestMatch(MustParse("0000")); ok {
		t.Error("deleted root prefix still matches")
	}
}

func TestTrieLongestMatchWhere(t *testing.T) {
	tr := NewTrie[bool]()
	tr.Put(MustParse("011"), false) // e.g. an inactive table entry
	tr.Put(MustParse("0110"), true) // the active leaf
	tr.Put(MustParse("01101"), false)
	k := MustParse("0110101")
	p, _, ok := tr.LongestMatch(k)
	if !ok || p.String() != "01101" {
		t.Errorf("LongestMatch = %v,%v, want 01101", p, ok)
	}
	p, v, ok := tr.LongestMatchWhere(k, func(active bool) bool { return active })
	if !ok || !v || p.String() != "0110" {
		t.Errorf("LongestMatchWhere = %v %v %v, want 0110", p, v, ok)
	}
	if _, _, ok := tr.LongestMatchWhere(MustParse("1110000"), func(active bool) bool { return active }); ok {
		t.Error("LongestMatchWhere matched an uncovered key")
	}
}

func TestTrieVisitSubtreeAndVisitOrder(t *testing.T) {
	tr := NewTrie[string]()
	for _, p := range []string{"1", "0110", "011", "01101", "0111", "00"} {
		tr.Put(MustParse(p), p)
	}
	var got []string
	tr.VisitSubtree(MustParse("011"), func(p Key, v string) bool {
		got = append(got, v)
		return true
	})
	want := []string{"011", "0110", "01101", "0111"}
	if len(got) != len(want) {
		t.Fatalf("VisitSubtree = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("VisitSubtree[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	got = got[:0]
	tr.Visit(func(p Key, v string) bool { got = append(got, v); return true })
	wantAll := []string{"00", "011", "0110", "01101", "0111", "1"}
	for i := range wantAll {
		if got[i] != wantAll[i] {
			t.Fatalf("Visit order = %v, want %v", got, wantAll)
		}
	}
	// Early stop.
	n := 0
	tr.Visit(func(Key, string) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("Visit early stop after %d", n)
	}
	// Subtree rooted at a prefix that ends inside a compressed edge.
	got = got[:0]
	tr.VisitSubtree(MustParse("0110"), func(p Key, v string) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 || got[0] != "0110" || got[1] != "01101" {
		t.Errorf("VisitSubtree(0110) = %v", got)
	}
	if gotN := countSubtree(tr, MustParse("10")); gotN != 0 {
		t.Errorf("VisitSubtree(10) visited %d entries, want 0", gotN)
	}
}

func countSubtree(tr *Trie[string], p Key) int {
	n := 0
	tr.VisitSubtree(p, func(Key, string) bool { n++; return true })
	return n
}

func TestTrieVisitMatches(t *testing.T) {
	tr := NewTrie[string]()
	for _, p := range []string{"", "0", "011", "0110", "0111", "01101"} {
		k, _ := Parse(p)
		tr.Put(k, "v"+p)
	}
	var got []string
	tr.VisitMatches(MustParse("0110110"), func(p Key, v string) bool {
		got = append(got, v)
		return true
	})
	want := []string{"v", "v0", "v011", "v0110", "v01101"}
	if len(got) != len(want) {
		t.Fatalf("VisitMatches = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("VisitMatches[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// brute is the reference implementation the property tests compare against.
type brute struct{ keys []Key }

func (b *brute) put(k Key) {
	for _, e := range b.keys {
		if e.Equal(k) {
			return
		}
	}
	b.keys = append(b.keys, k)
}

func (b *brute) del(k Key) {
	for i, e := range b.keys {
		if e.Equal(k) {
			b.keys = append(b.keys[:i], b.keys[i+1:]...)
			return
		}
	}
}

func (b *brute) longestMatch(k Key) (Key, bool) {
	best, ok := Key{}, false
	for _, e := range b.keys {
		if k.HasPrefix(e) && (!ok || e.Bits > best.Bits) {
			best, ok = e, true
		}
	}
	return best, ok
}

func (b *brute) maxCommon(k Key) int {
	best := 0
	for _, e := range b.keys {
		if l := commonBits(k, e); l > best {
			best = l
		}
	}
	return best
}

func (b *brute) subtree(p Key) []Key {
	var out []Key
	for _, e := range b.keys {
		if e.HasPrefix(p) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func randomKey(rng *rand.Rand, maxBits int) Key {
	bits := rng.Intn(maxBits + 1)
	if bits == 0 {
		return Key{}
	}
	return Key{Value: rng.Uint64() & ((1 << uint(bits)) - 1), Bits: bits}
}

// TestTriePropertyRandom cross-checks every trie operation against the brute
// force over randomized insert/delete workloads, including random prefix-free
// sets (the shape of CLASH's active groups).
func TestTriePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 30; round++ {
		tr := NewTrie[uint64]()
		ref := &brute{}
		maxBits := 4 + rng.Intn(14) // small spaces provoke collisions and nesting
		prefixFree := round%3 == 0
		for op := 0; op < 300; op++ {
			k := randomKey(rng, maxBits)
			switch {
			case rng.Intn(4) == 0:
				tr.Delete(k)
				ref.del(k)
			default:
				if prefixFree {
					// Only insert keys that keep the set prefix-free.
					conflict := false
					for _, e := range ref.keys {
						if k.HasPrefix(e) || e.HasPrefix(k) {
							conflict = true
							break
						}
					}
					if conflict {
						continue
					}
				}
				tr.Put(k, k.Value)
				ref.put(k)
			}
		}
		if tr.Len() != len(ref.keys) {
			t.Fatalf("round %d: Len = %d, brute = %d", round, tr.Len(), len(ref.keys))
		}
		for probe := 0; probe < 200; probe++ {
			k := randomKey(rng, maxBits)
			wantP, wantOK := ref.longestMatch(k)
			gotP, gotV, gotOK := tr.LongestMatch(k)
			if gotOK != wantOK || (gotOK && !gotP.Equal(wantP)) {
				t.Fatalf("round %d: LongestMatch(%v) = %v,%v; brute %v,%v", round, k, gotP, gotOK, wantP, wantOK)
			}
			if gotOK && gotV != wantP.Value {
				t.Fatalf("round %d: LongestMatch(%v) value %d, want %d", round, k, gotV, wantP.Value)
			}
			if got, want := tr.MaxCommonPrefix(k), ref.maxCommon(k); got != want {
				t.Fatalf("round %d: MaxCommonPrefix(%v) = %d, brute %d", round, k, got, want)
			}
			var sub []Key
			tr.VisitSubtree(k, func(p Key, _ uint64) bool { sub = append(sub, p); return true })
			wantSub := ref.subtree(k)
			if len(sub) != len(wantSub) {
				t.Fatalf("round %d: VisitSubtree(%v) found %d, brute %d", round, k, len(sub), len(wantSub))
			}
			for i := range sub {
				if !sub[i].Equal(wantSub[i]) {
					t.Fatalf("round %d: VisitSubtree(%v)[%d] = %v, want %v", round, k, i, sub[i], wantSub[i])
				}
			}
		}
		// Every stored key must round-trip through Get.
		for _, e := range ref.keys {
			if v, ok := tr.Get(e); !ok || v != e.Value {
				t.Fatalf("round %d: Get(%v) = %d,%v", round, e, v, ok)
			}
		}
	}
}
