package core

import (
	"fmt"
	"testing"

	"clash/internal/bitkey"
)

func TestRouterLearnRouteForget(t *testing.T) {
	r := NewRouter(7)
	k := bitkey.MustParse("0110101")
	if _, _, ok := r.Route(k); ok {
		t.Error("empty router resolved a key")
	}
	r.Learn(bitkey.MustParseGroup("0110*"), "s3")
	g, srv, ok := r.Route(k)
	if !ok || srv != "s3" || g.String() != "0110*" {
		t.Errorf("Route = %v %v %v", g, srv, ok)
	}
	if _, _, ok := r.Route(bitkey.MustParse("1110101")); ok {
		t.Error("unrelated key resolved")
	}
	r.Forget(bitkey.MustParseGroup("0110*"))
	if _, _, ok := r.Route(k); ok {
		t.Error("forgotten binding still resolves")
	}
}

func TestRouterPrefersDeepestBinding(t *testing.T) {
	r := NewRouter(7)
	r.Learn(bitkey.MustParseGroup("011*"), "sOld")
	r.Learn(bitkey.MustParseGroup("01101*"), "sNew")
	g, srv, ok := r.Route(bitkey.MustParse("0110101"))
	if !ok || srv != "sNew" || g.String() != "01101*" {
		t.Errorf("Route should prefer the deepest binding, got %v %v %v", g, srv, ok)
	}
	// A key only covered by the shallow binding still resolves to it.
	g, srv, ok = r.Route(bitkey.MustParse("0111111"))
	if !ok || srv != "sOld" || g.String() != "011*" {
		t.Errorf("shallow fallback = %v %v %v", g, srv, ok)
	}
}

func TestRouterForgetServer(t *testing.T) {
	r := NewRouter(7)
	r.Learn(bitkey.MustParseGroup("00*"), "a")
	r.Learn(bitkey.MustParseGroup("01*"), "b")
	r.Learn(bitkey.MustParseGroup("10*"), "a")
	if r.trie.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.trie.Len())
	}
	r.ForgetServer("a")
	if r.trie.Len() != 1 {
		t.Errorf("Len after ForgetServer = %d, want 1", r.trie.Len())
	}
	if _, srv, ok := r.Route(bitkey.MustParse("0100000")); !ok || srv != "b" {
		t.Errorf("surviving binding lost: %v %v", srv, ok)
	}
}

// TestRouterRelearn pins Learn's read-locked early return: re-learning an
// unchanged binding leaves the reverse index as it was, and rebinding a group
// to a new server still un-indexes the old one, so forgetting the old server
// keeps the rebound group.
func TestRouterRelearn(t *testing.T) {
	r := NewRouter(7)
	g := bitkey.MustParseGroup("01*")
	r.Learn(g, "a")
	r.Learn(bitkey.MustParseGroup("10*"), "a")
	before := fmt.Sprint(r.byServer)
	r.Learn(g, "a")
	if after := fmt.Sprint(r.byServer); after != before {
		t.Errorf("re-learning an unchanged binding changed the index: %s -> %s", before, after)
	}

	r.Learn(g, "b")
	if _, indexed := r.byServer["a"][g.Prefix]; indexed {
		t.Error("rebinding left the group indexed under its old server")
	}
	r.ForgetServer("a")
	if got, srv, ok := r.Route(bitkey.MustParse("0100000")); !ok || srv != "b" || !got.Equal(g) {
		t.Errorf("after ForgetServer(old): Route = %v %v %v, want %v b", got, srv, ok, g)
	}
	if r.trie.Len() != 1 {
		t.Errorf("Len = %d, want 1 (only the rebound group)", r.trie.Len())
	}
}
