package overlay

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
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

// eventLog is an Observer that keeps a node's protocol events.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) OnEvent(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

func (l *eventLog) OnTrace(TraceRecord)        {}
func (l *eventLog) OnTraceStage(string, int64) {}
func (l *eventLog) OnSpan(Span)                {}

// count returns how many events of the given type were logged.
func (l *eventLog) count(typ string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// TestExhaustedSplitNotRetried checks that an overloaded load check does not
// plan again a split that ran out of retries. On a one-node overlay every
// right child maps back to the node, so the first overloaded load check
// resolves the hottest group's whole right spine and its split ends
// exhausted. The second, with the same successor list, makes no attempt and
// so no lookups for that group: no second exhausted split is reported. A
// changed successor list lets the group be tried again.
func TestExhaustedSplitNotRetried(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	cfg.KeyBits = 24                 // room for every retry before the key space runs out
	cfg.Model = load.DefaultModel(1) // one stored query overloads the node
	n := buildOverlay(t, netw, 1, cfg)[0]
	g := n.Server().ActiveGroups()[0]
	c, err := NewClient(netw.Endpoint("client"), cfg.KeyBits, cfg.Space, n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(cq.Query{ID: "q", Region: g}); err != nil {
		t.Fatal(err)
	}
	events := &eventLog{}
	n.SetObserver(events)
	active := n.Server().ActiveGroups()

	n.LoadCheck(time.Now())
	if got := events.count(EventSplitExhausted); got != 1 {
		t.Fatalf("%d exhausted splits after the first overloaded load check, want 1", got)
	}
	n.LoadCheck(time.Now())
	if total := n.Server().TotalLoad(); total <= load.OverloadFraction {
		t.Fatalf("load %g after the second load check, want overloaded (test setup degenerate)", total)
	}
	if got := events.count(EventSplitExhausted); got != 1 {
		t.Errorf("%d exhausted splits after the second overloaded load check, want still 1", got)
	}
	if got := n.Server().ActiveGroups(); !reflect.DeepEqual(got, active) {
		t.Errorf("active groups = %v, want %v unchanged", got, active)
	}

	n.mu.Lock()
	n.exhausted.succ = nil // as if the split had been planned on another ring
	n.mu.Unlock()
	n.LoadCheck(time.Now())
	if got := events.count(EventSplitExhausted); got != 2 {
		t.Errorf("%d exhausted splits after the successor list changed, want 2", got)
	}
}
