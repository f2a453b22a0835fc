package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/cq"
	"clash/internal/hub"
	"clash/internal/load"
	"clash/internal/overlay"
)

// kindsOf walks one assembled tree and collects the hop kinds and node
// addresses it touches.
func kindsOf(tr *TraceTree) (map[string]bool, map[string]bool) {
	kinds := map[string]bool{}
	nodes := map[string]bool{}
	var walk func(ts *TraceSpan)
	walk = func(ts *TraceSpan) {
		kinds[ts.Kind] = true
		nodes[ts.Node] = true
		for _, ch := range ts.Children {
			walk(ch)
		}
	}
	if tr.Root != nil {
		walk(tr.Root)
	}
	return kinds, nodes
}

// findCrossNodeTrace returns the first complete trace that spans at least two
// nodes and covers the whole publish path: ingress, a routing hop (resolve or
// route-forward), the CQ match and the subscriber delivery.
func findCrossNodeTrace(trees []*TraceTree) *TraceTree {
	for _, tr := range trees {
		if !tr.Complete {
			continue
		}
		kinds, nodes := kindsOf(tr)
		if kinds[overlay.HopIngress] && kinds[overlay.HopCQMatch] && kinds[overlay.HopDeliver] &&
			(kinds[overlay.HopResolve] || kinds[overlay.HopRouteForward]) && len(nodes) >= 2 {
			return tr
		}
	}
	return nil
}

// liveCluster is a live loopback-TCP overlay with a hub (and HTTP server)
// mounted on every node, booted, joined and past two load checks.
type liveCluster struct {
	cfg   overlay.Config
	nodes []*overlay.Node
	srvs  []*httptest.Server
	now   time.Time
}

func newLiveCluster(t *testing.T, n int) *liveCluster {
	t.Helper()
	c := &liveCluster{
		cfg: overlay.Config{
			KeyBits:           16,
			Space:             chord.DefaultSpace(),
			BootstrapDepth:    2,
			Model:             load.DefaultModel(200),
			LoadCheckInterval: time.Second,
			ReplicationFactor: 2,
		},
		now: time.Now(),
	}
	for i := 0; i < n; i++ {
		tr, err := overlay.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenTCP: %v", err)
		}
		node, err := overlay.NewNode(tr, c.cfg)
		if err != nil {
			t.Fatalf("NewNode %d: %v", i, err)
		}
		c.nodes = append(c.nodes, node)
		c.srvs = append(c.srvs, httptest.NewServer(hub.New(node).Handler()))
	}
	t.Cleanup(func() {
		for _, s := range c.srvs {
			s.Close()
		}
		for _, n := range c.nodes {
			_ = n.Close()
		}
	})
	if err := c.nodes[0].BootstrapRoots(); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes[1:] {
		if err := n.Join(c.nodes[0].Addr()); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	c.tick(8)
	c.check()
	c.check()
	return c
}

func (c *liveCluster) tick(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, n := range c.nodes {
			n.Tick()
			_ = n.FixAllFingers()
		}
	}
}

func (c *liveCluster) check() {
	c.now = c.now.Add(c.cfg.LoadCheckInterval)
	for _, n := range c.nodes {
		n.LoadCheck(c.now)
	}
}

func (c *liveCluster) collector() *Collector {
	col := &Collector{}
	for _, s := range c.srvs {
		col.Hubs = append(col.Hubs, s.URL)
	}
	return col
}

// registerRegionQueries registers one query per depth-2 bootstrap region
// through cli.
func registerRegionQueries(t *testing.T, cli *overlay.Client) {
	t.Helper()
	for i, rg := range []string{"00", "01", "10", "11"} {
		q := cq.Query{
			ID:         fmt.Sprintf("q-%d", i),
			Region:     bitkey.MustParseGroup(rg),
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		if _, err := cli.Register(q); err != nil {
			t.Fatalf("Register %s: %v", q.ID, err)
		}
	}
}

// TestClashtopEndToEnd boots a live 3-node loopback-TCP overlay with a hub on
// every node, drives traced publishes through a fresh client (cold routing
// cache, so probes hop), and checks the full clashtop pipeline: the collector
// scrapes every hub, the invariant probes pass, the fleet aggregate carries
// merged stage latencies, and at least one sampled publish reassembles into a
// complete cross-node span tree covering ingress, a routing hop, the CQ match
// and the subscriber delivery with per-hop timings.
func TestClashtopEndToEnd(t *testing.T) {
	lc := newLiveCluster(t, 3)
	cfg, nodes := lc.cfg, lc.nodes

	ctr, err := overlay.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := overlay.NewClient(ctr, cfg.KeyBits, cfg.Space, nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	cli.SetTraceEvery(1)

	// One query per bootstrap region so every publish lands on a CQ match
	// and fans out a subscriber delivery.
	registerRegionQueries(t, cli)
	lc.check() // replicate the registered state to successors

	// Bulk traffic through the warmed client: after its first probes it
	// resolves in one hop, so this feeds the stage histograms, counters and
	// single-node traces.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		key := bitkey.Key{Value: uint64(rng.Intn(1 << 16)), Bits: 16}
		if _, err := cli.Publish(key, map[string]float64{"speed": 80}, nil); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}

	c := lc.collector()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Cross-node traces come from clients with no depth estimate: a fresh
	// client's first publish starts the modified binary search in the middle
	// of the depth range, landing on a hash-placed server that answers
	// INCORRECT_DEPTH (the ingress hop) before the search forwards to the
	// real holder — usually a different node. Each attempt publishes one
	// fresh-client object per bootstrap region; the retry loop only guards
	// against the unlucky case where every search happened to start on the
	// holder itself.
	var best *TraceTree
	var rep *Report
	for attempt := 0; attempt < 10 && best == nil; attempt++ {
		for _, rg := range []string{"00", "01", "10", "11"} {
			ftr, err := overlay.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fcli, err := overlay.NewClient(ftr, cfg.KeyBits, cfg.Space, nodes[0].Addr())
			if err != nil {
				t.Fatal(err)
			}
			fcli.SetTraceEvery(1)
			g := bitkey.MustParseGroup(rg)
			vk, err := g.VirtualKey(cfg.KeyBits)
			if err != nil {
				t.Fatal(err)
			}
			key := bitkey.Key{Value: vk.Value | uint64(rng.Intn(1<<14)), Bits: 16}
			if _, err := fcli.Publish(key, map[string]float64{"speed": 80}, nil); err != nil {
				t.Fatalf("fresh-client Publish: %v", err)
			}
			_ = fcli.Close()
		}
		rep = BuildReport(ctx, c, 64)
		best = findCrossNodeTrace(rep.Traces)
	}

	if rep.Fleet.Reachable != 3 {
		t.Fatalf("reachable = %d, want 3 (nodes: %+v)", rep.Fleet.Reachable, rep.Nodes)
	}
	if len(rep.Unscraped) != 0 {
		t.Errorf("unscraped ring members: %v", rep.Unscraped)
	}
	if rep.Fleet.VersionSkew {
		t.Errorf("one binary reported version skew: %+v", rep.Fleet.Builds)
	}
	for _, name := range []string{"coverage", "successors"} {
		if p := probeByName(t, rep.Probes, name); !p.OK {
			t.Errorf("probe %s failed: %s %v", name, p.Detail, p.Violations)
		}
	}
	if rep.Fleet.Objects["ok"]+rep.Fleet.Objects["corrected"] == 0 {
		t.Errorf("fleet saw no accepted objects: %+v", rep.Fleet.Objects)
	}
	if _, ok := rep.Fleet.Stages["route"]; !ok {
		t.Errorf("merged stages missing route: %+v", rep.Fleet.Stages)
	}
	if rep.Fleet.Spans == 0 {
		t.Fatal("no spans scraped from any node")
	}

	if best == nil {
		for _, tr := range rep.Traces {
			k, n := kindsOf(tr)
			t.Logf("trace %d complete=%v spans=%d kinds=%v nodes=%v", tr.TraceID, tr.Complete, tr.Spans, k, n)
		}
		t.Fatalf("no complete cross-node trace with ingress+route+cq-match+deliver among %d traces (%d complete)",
			len(rep.Traces), rep.TracesComplete)
	}
	if len(best.CriticalPath) < 3 {
		t.Errorf("critical path too short: %+v", best.CriticalPath)
	}
	// Per-hop timings: a real TCP delivery write (a syscall) cannot be free.
	if best.CriticalPathMicros <= 0 {
		t.Errorf("critical path carries no time: %+v", best.CriticalPath)
	}

	// Cross-check the per-trace fetch path (/traces/spans?traceId=) against
	// the pooled-ring assembly.
	direct := AssembleTrace(best.TraceID, c.SpansFor(ctx, best.TraceID))
	if !direct.Complete || direct.Spans != best.Spans {
		t.Errorf("SpansFor assembly disagrees: direct %d spans complete=%v, pooled %d",
			direct.Spans, direct.Complete, best.Spans)
	}
}

// TestTopologyDuplicateHolder makes a key group active on two nodes and
// checks that the hub's /topology lists it under both holders and that the
// fleet heat gives each holder its own query count. A /topology keyed by
// group name keeps one holder, and heat rows then share one count.
func TestTopologyDuplicateHolder(t *testing.T) {
	lc := newLiveCluster(t, 2)
	ctr, err := overlay.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := overlay.NewClient(ctr, lc.cfg.KeyBits, lc.cfg.Space, lc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	registerRegionQueries(t, cli)

	// Pick a group holding a query and make it active on the other node too.
	var holder, other *overlay.Node
	var group bitkey.Group
	for i, n := range lc.nodes {
		for _, g := range n.Server().ActiveGroups() {
			if holder == nil && n.Engine().CountInGroup(g) > 0 {
				holder, other, group = n, lc.nodes[1-i], g
			}
		}
	}
	if holder == nil {
		t.Fatal("no active group holds a query")
	}
	if err := other.Server().Bootstrap(group); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		holder.Addr(): holder.Engine().CountInGroup(group),
		other.Addr():  other.Engine().CountInGroup(group),
	}
	if want[holder.Addr()] == want[other.Addr()] {
		t.Fatalf("holders store the same query count %v; the check needs them to differ", want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v := lc.collector().Collect(ctx)
	if v.Topo == nil {
		t.Fatal("no topology collected")
	}
	got := map[string]int{}
	for _, n := range v.Topo.Nodes {
		for _, g := range n.Groups {
			if g.Group == group.String() {
				got[n.Addr] = g.Queries
			}
		}
	}
	if len(got) != 2 || got[holder.Addr()] != want[holder.Addr()] || got[other.Addr()] != want[other.Addr()] {
		t.Errorf("/topology holders of %v = %v, want %v", group, got, want)
	}

	heat := map[string]int{}
	for _, h := range Aggregate(v).Heat {
		if h.Group == group.String() {
			heat[h.Holder] = h.Queries
		}
	}
	if len(heat) != 2 || heat[holder.Addr()] != want[holder.Addr()] || heat[other.Addr()] != want[other.Addr()] {
		t.Errorf("heat query counts for %v = %v, want %v", group, heat, want)
	}
}
