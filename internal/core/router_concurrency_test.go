package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"clash/internal/benchutil"
	"clash/internal/bitkey"
)

// TestRouterForgetServerAcrossShards covers ForgetServer over bindings at
// shallow and deep prefixes, including rebinding a group to a different
// server (which must drop the old reverse-index entry).
func TestRouterForgetServerAcrossShards(t *testing.T) {
	r := NewRouter(16)
	groups := map[string]ServerID{
		"0":        "a", // shallow
		"110":      "b", // shallow
		"0110":     "a", // deep
		"01101":    "b",
		"10110011": "a",
		"1111":     "c",
	}
	for p, s := range groups {
		r.Learn(bitkey.Group{Prefix: bitkey.MustParse(p)}, s)
	}
	// Rebinding must move the reverse-index entry, not duplicate it.
	r.Learn(bitkey.Group{Prefix: bitkey.MustParse("1111")}, "a")
	if r.trie.Len() != len(groups) {
		t.Fatalf("Len = %d, want %d", r.trie.Len(), len(groups))
	}
	r.ForgetServer("a")
	if r.trie.Len() != 2 {
		t.Fatalf("Len after ForgetServer(a) = %d, want 2", r.trie.Len())
	}
	if _, _, ok := r.Route(bitkey.MustParse("1111000000000000")); ok {
		t.Error("rebound group still routes to forgotten server's binding")
	}
	if _, s, ok := r.Route(bitkey.MustParse("0110111111111111")); !ok || s != "b" {
		t.Errorf("surviving deep binding = %v,%v, want b", s, ok)
	}
	if _, s, ok := r.Route(bitkey.MustParse("1100000000000000")); !ok || s != "b" {
		t.Errorf("surviving shallow binding = %v,%v, want b", s, ok)
	}
	// Forgetting a server with no bindings is a no-op.
	r.ForgetServer("a")
	if r.trie.Len() != 2 {
		t.Errorf("Len after second ForgetServer = %d, want 2", r.trie.Len())
	}
}

// TestRouterConcurrent hammers Learn/Route/Forget/ForgetServer from many
// goroutines; run with -race it checks the locking, and afterwards it
// verifies the reverse index and trie agree (ForgetServer must leave no
// binding behind).
func TestRouterConcurrent(t *testing.T) {
	const keyBits = 32
	r := NewRouter(keyBits)
	setup := rand.New(rand.NewSource(7))
	groups := benchutil.PrefixFreeGroups(setup, keyBits, 512)
	keys := benchutil.RandomKeys(setup, keyBits, 1024)
	servers := make([]ServerID, 8)
	for i := range servers {
		servers[i] = ServerID(fmt.Sprintf("s%d", i))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				g := groups[rng.Intn(len(groups))]
				switch rng.Intn(10) {
				case 0:
					r.Forget(g)
				case 1:
					r.ForgetServer(servers[rng.Intn(len(servers))])
				case 2, 3, 4:
					r.Learn(g, servers[rng.Intn(len(servers))])
				default:
					k := keys[rng.Intn(len(keys))]
					if rg, s, ok := r.Route(k); ok {
						if s == NoServer {
							t.Error("Route returned ok with NoServer")
						}
						if !rg.Contains(k) {
							t.Errorf("Route(%v) returned non-covering group %v", k, rg)
						}
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Drain every server; the cache must be completely empty afterwards,
	// proving the reverse index tracked every surviving binding.
	for _, s := range servers {
		r.ForgetServer(s)
	}
	if r.trie.Len() != 0 {
		t.Errorf("Len after forgetting all servers = %d, want 0", r.trie.Len())
	}
	for _, k := range keys {
		if _, s, ok := r.Route(k); ok {
			t.Fatalf("Route(%v) = %v after all servers forgotten", k, s)
		}
	}
}
