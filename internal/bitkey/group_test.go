package bitkey

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGroupStringAndParse(t *testing.T) {
	g := MustParseGroup("0110*")
	if g.Depth() != 4 {
		t.Errorf("Depth() = %d, want 4", g.Depth())
	}
	if g.String() != "0110*" {
		t.Errorf("String() = %q, want 0110*", g.String())
	}
	root := NewGroup(Key{})
	if root.String() != "*" {
		t.Errorf("root String() = %q, want *", root.String())
	}
	// Trailing '*' is optional.
	g2, err := ParseGroup("0110")
	if err != nil || !g2.Equal(g) {
		t.Errorf("ParseGroup without star mismatch: %v %v", g2, err)
	}
	if _, err := ParseGroup("01a0*"); err == nil {
		t.Error("ParseGroup with bad chars succeeded, want error")
	}
}

func TestGroupContainsPaperExample(t *testing.T) {
	// Paper §4: the key group "0110*" includes the 7-bit keys "0110101" and
	// "0110111".
	g := MustParseGroup("0110*")
	for _, s := range []string{"0110101", "0110111", "0110000"} {
		if !g.Contains(MustParse(s)) {
			t.Errorf("group %v should contain %s", g, s)
		}
	}
	for _, s := range []string{"0111101", "1110101"} {
		if g.Contains(MustParse(s)) {
			t.Errorf("group %v should not contain %s", g, s)
		}
	}
}

func TestGroupVirtualKey(t *testing.T) {
	// Paper §4: virtual key for "0110*" in a 7-bit space is "0110000"
	// (decimal 48) with depth 4.
	g := MustParseGroup("0110*")
	vk, err := g.VirtualKey(7)
	if err != nil {
		t.Fatal(err)
	}
	if vk.String() != "0110000" || vk.Value != 48 {
		t.Errorf("VirtualKey = %v (%d), want 0110000 (48)", vk, vk.Value)
	}
	if _, err := g.VirtualKey(3); err == nil {
		t.Error("VirtualKey with n < depth succeeded, want error")
	}
}

func TestGroupSplitMatchesPaper(t *testing.T) {
	// Paper §4: expanding "0110*" (depth 4) creates "01100*" and "01101*"
	// (depth 5); "01100*" expands to the same 7-bit value as "0110*".
	g := MustParseGroup("0110*")
	left, right, err := g.Split()
	if err != nil {
		t.Fatal(err)
	}
	if left.String() != "01100*" || right.String() != "01101*" {
		t.Errorf("Split = %v, %v; want 01100*, 01101*", left, right)
	}
	gv, _ := g.VirtualKey(7)
	lv, _ := left.VirtualKey(7)
	rv, _ := right.VirtualKey(7)
	if !gv.Equal(lv) {
		t.Errorf("left child virtual key %v must equal parent virtual key %v", lv, gv)
	}
	if rv.Equal(gv) {
		t.Error("right child virtual key must differ from parent virtual key")
	}
}

func TestGroupParentSibling(t *testing.T) {
	g := MustParseGroup("01101*")
	p, ok := g.Parent()
	if !ok || p.String() != "0110*" {
		t.Errorf("Parent = %v,%v; want 0110*", p, ok)
	}
	s := MustParseGroup("01100*")
	if sp, ok := s.Parent(); !ok || !sp.Equal(p) {
		t.Errorf("sibling 01100* has parent %v,%v; want %v", sp, ok, p)
	}
	if g.IsLeftChild() {
		t.Error("01101* should not be a left child")
	}
	if !s.IsLeftChild() {
		t.Error("01100* should be a left child")
	}
	root := NewGroup(Key{})
	if _, ok := root.Parent(); ok {
		t.Error("root has no parent")
	}
	if root.IsLeftChild() {
		t.Error("root is not a left child")
	}
}

func TestLongestCommonPrefix(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"0110101", "0110111", 5},
		{"0110101", "0110101", 7},
		{"0110101", "1110101", 0},
		{"0110", "0110101", 4},
	}
	for _, tt := range tests {
		if got := commonBits(MustParse(tt.a), MustParse(tt.b)); got != tt.want {
			t.Errorf("commonBits(%s,%s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPropertySplitPartitionsGroup(t *testing.T) {
	// Invariant: the two children of a group partition it — every key in the
	// group is in exactly one child, and both children are contained in the
	// parent.
	const n = 24
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		depth := rng.Intn(n - 1)
		prefix := MustNew(rng.Uint64()&(^uint64(0)>>uint(64-depth-1))>>1, depth)
		g := NewGroup(prefix)
		left, right, err := g.Split()
		if err != nil {
			t.Fatal(err)
		}
		if !g.ContainsGroup(left) || !g.ContainsGroup(right) {
			t.Fatalf("children %v,%v not contained in %v", left, right, g)
		}
		key := MustNew(rng.Uint64()&(1<<n-1), n)
		if !g.Contains(key) {
			continue
		}
		inLeft := left.Contains(key)
		inRight := right.Contains(key)
		if inLeft == inRight {
			t.Fatalf("key %v must be in exactly one child of %v (left=%v right=%v)", key, g, inLeft, inRight)
		}
	}
}

func TestPropertyParentChildRoundTrip(t *testing.T) {
	f := func(value uint64, depthRaw uint8) bool {
		d := int(depthRaw)%23 + 1
		prefix := MustNew(value&(^uint64(0)>>uint(64-d)), d)
		g := NewGroup(prefix)
		parent, ok := g.Parent()
		if !ok {
			return false
		}
		left, right, err := parent.Split()
		if err != nil {
			return false
		}
		return g.Equal(left) || g.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGroupAppendString(t *testing.T) {
	for _, s := range []string{"*", "0*", "1*", "0110*", "1111111111111111*"} {
		g := MustParseGroup(s)
		if got := string(g.AppendString([]byte("g="))); got != "g="+s {
			t.Errorf("AppendString = %q, want %q", got, "g="+s)
		}
	}
	full := NewGroup(Key{Value: 1<<63 | 1, Bits: MaxBits})
	if got := string(full.AppendString(nil)); got != "1"+strings.Repeat("0", 62)+"1*" {
		t.Errorf("64-bit AppendString = %q", got)
	}
}
