package overlay

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"clash/internal/bitkey"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/load"
)

// TestLoadCheckCountsEngineQueries checks that a load check prices every
// active group by the queries the engine stores under it, including the
// groups a split leaves behind when the DHT maps a right child back to the
// splitting node: each such retry keeps its left child active here, and its
// queries never moved. A split that exhausts its retries changes nothing.
// The check runs with no traffic, so a group's load is its query term alone;
// a merge in the same check only adds load.
func TestLoadCheckCountsEngineQueries(t *testing.T) {
	// child names the descendant of g under the given extra bits.
	child := func(g bitkey.Group, bits string) bitkey.Group {
		return bitkey.MustParseGroup(strings.TrimSuffix(g.String(), "*") + bits + "*")
	}
	// register stores, through the node, count queries at each of the given
	// regions under g: the left child of each right-spine step, so every
	// group a split chain keeps on the splitter holds some.
	register := func(t *testing.T, netw *MemNetwork, n *Node, cfg Config, g bitkey.Group) {
		t.Helper()
		c, err := NewClient(netw.Endpoint("client-"+n.Addr()), cfg.KeyBits, cfg.Space, n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 4; d++ {
			region := child(g, strings.Repeat("1", d)+"0")
			for i := 0; i <= d; i++ {
				q := cq.Query{ID: fmt.Sprintf("q-%s-%d", region, i), Region: region}
				if _, err := c.Register(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// check runs one load check on n and compares each active group's load
	// with the query term of the engine's count for it.
	check := func(t *testing.T, n *Node, cfg Config) {
		t.Helper()
		n.LoadCheck(time.Now())
		loads := n.GroupLoads()
		counted := 0
		for _, g := range n.Server().ActiveGroups() {
			q := n.Engine().CountInGroup(g)
			if q == 0 {
				continue
			}
			counted++
			want := cfg.Model.Load(load.Sample{Queries: q})
			if got := loads[g.String()]; got < want {
				t.Errorf("group %v stores %d queries: load %g, want ≥ %g", g, q, got, want)
			}
		}
		if counted < 2 {
			t.Fatalf("%d active groups store queries, want ≥ 2 (test setup degenerate)", counted)
		}
	}

	t.Run("one node, split exhausted", func(t *testing.T) {
		netw := NewMemNetwork()
		cfg := testConfig()
		cfg.KeyBits = 24 // room for every retry before the key space runs out
		n := buildOverlay(t, netw, 1, cfg)[0]
		g := n.Server().ActiveGroups()[0]
		register(t, netw, n, cfg, g)
		active := n.Server().ActiveGroups()
		stored := n.Engine().CountInGroup(g)
		// Every right child maps back to the only node.
		if err := n.ForceSplit(g); !errors.Is(err, core.ErrSplitExhausted) {
			t.Fatalf("ForceSplit(%v) = %v, want ErrSplitExhausted", g, err)
		}
		if got := n.Server().ActiveGroups(); !reflect.DeepEqual(got, active) {
			t.Errorf("active groups after the exhausted split = %v, want %v", got, active)
		}
		if got := n.Engine().CountInGroup(g); got != stored {
			t.Errorf("%v stores %d queries after the exhausted split, want %d", g, got, stored)
		}
	})

	t.Run("three nodes, first right child maps back", func(t *testing.T) {
		netw := NewMemNetwork()
		cfg := testConfig()
		nodes := buildOverlay(t, netw, 3, cfg)
		// Walk down each node's left spine until a group's right child maps
		// back to its holder; a split of that group retries once or more and
		// then hands a deeper right child to a peer.
		var n *Node
		var g bitkey.Group
	search:
		for _, cand := range nodes {
			for _, root := range cand.Server().ActiveGroups() {
				for cur := root; cur.Depth() < cfg.KeyBits/2; cur = child(cur, "0") {
					vk, err := child(cur, "1").VirtualKey(cfg.KeyBits)
					if err != nil {
						t.Fatal(err)
					}
					owner, err := cand.mapGroup(vk)
					if err != nil {
						t.Fatal(err)
					}
					if owner == core.ServerID(cand.Addr()) {
						n, g = cand, cur
						break search
					}
					if err := cand.ForceSplit(cur); err != nil {
						t.Fatalf("ForceSplit(%v): %v", cur, err)
					}
				}
			}
		}
		if n == nil {
			t.Fatal("no group's right child maps back to its holder (test setup degenerate)")
		}
		register(t, netw, n, cfg, g)
		if err := n.ForceSplit(g); err != nil {
			t.Fatalf("ForceSplit(%v): %v", g, err)
		}
		// The retry's left child stayed here beside the split's kept group.
		for _, kept := range []bitkey.Group{child(g, "0"), child(g, "10")} {
			if holderOf([]*Node{n}, kept) == "" {
				t.Fatalf("%v not active on %s after the split", kept, n.Addr())
			}
		}
		check(t, n, cfg)
	})
}
