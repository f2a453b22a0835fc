package hub

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/cq"
	"clash/internal/invariant"
	"clash/internal/load"
	"clash/internal/metrics"
	"clash/internal/overlay"
)

// testCluster is a live loopback-TCP overlay with a hub (and HTTP server)
// mounted on every node — the e2e fixture for the control-plane tests.
type testCluster struct {
	cfg   overlay.Config
	nodes []*overlay.Node
	hubs  []*Hub
	srvs  []*httptest.Server
	now   time.Time
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	c := &testCluster{
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
		h := New(node)
		c.hubs = append(c.hubs, h)
		c.srvs = append(c.srvs, httptest.NewServer(h.Handler()))
	}
	t.Cleanup(func() {
		for _, s := range c.srvs {
			s.Close()
		}
		for _, node := range c.nodes {
			_ = node.Close()
		}
	})
	if err := c.nodes[0].BootstrapRoots(); err != nil {
		t.Fatal(err)
	}
	for _, node := range c.nodes[1:] {
		if err := node.Join(c.nodes[0].Addr()); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	c.tick(c.nodes, 8)
	c.check(c.nodes)
	c.check(c.nodes)
	return c
}

// tick runs full maintenance rounds on the given nodes.
func (c *testCluster) tick(nodes []*overlay.Node, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, n := range nodes {
			n.Tick()
			_ = n.FixAllFingers()
		}
	}
}

// check advances virtual time one load-check interval and runs a load check
// on the given nodes.
func (c *testCluster) check(nodes []*overlay.Node) {
	c.now = c.now.Add(c.cfg.LoadCheckInterval)
	for _, n := range nodes {
		n.LoadCheck(c.now)
	}
}

func (c *testCluster) client(t *testing.T) *overlay.Client {
	t.Helper()
	tr, err := overlay.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := overlay.NewClient(tr, c.cfg.KeyBits, c.cfg.Space, c.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// holderIdx returns the index of a node holding at least one active group,
// preferring non-bootstrap members.
func (c *testCluster) holderIdx(t *testing.T) int {
	t.Helper()
	for i := len(c.nodes) - 1; i >= 0; i-- {
		if len(c.nodes[i].Server().ActiveGroups()) > 0 {
			return i
		}
	}
	t.Fatal("no node holds a group")
	return -1
}

// spreadOffBootstrap makes sure a node other than nodes[0], the node that
// bootstrapped the roots, holds an active group. Chord positions hash the
// ephemeral listen addresses, so every root can hash to nodes[0]; splitting
// one of its groups hands the right child to whichever node the DHT maps that
// child to. It reports whether a split was needed and fails the test when a
// bounded number of splits never moves a group.
func (c *testCluster) spreadOffBootstrap(t *testing.T) bool {
	t.Helper()
	for try := 0; ; try++ {
		for _, n := range c.nodes[1:] {
			if len(n.Server().ActiveGroups()) > 0 {
				return try > 0
			}
		}
		groups := c.nodes[0].Server().ActiveGroups()
		if try == 32 || len(groups) == 0 {
			t.Fatalf("no group moved off the bootstrap node after %d splits", try)
		}
		// ErrSplitExhausted (every retry mapped back here) just moves on to
		// the next group.
		_ = c.nodes[0].ForceSplit(groups[try%len(groups)])
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func httpPost(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// awaitEvent connects to an /events stream and reads until an event of the
// wanted type arrives (replay included via ?since=0), ctx ends or the stream
// does. It reports failure as an error rather than through t, so it can run
// on its own goroutine.
func awaitEvent(ctx context.Context, baseURL, evType string) (overlay.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/events?since=0", nil)
	if err != nil {
		return overlay.Event{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return overlay.Event{}, fmt.Errorf("GET /events: %w", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return overlay.Event{}, fmt.Errorf("/events content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev overlay.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			return overlay.Event{}, fmt.Errorf("bad event JSON %q: %w", line, err)
		}
		if ev.Type == evType {
			return ev, nil
		}
	}
	return overlay.Event{}, fmt.Errorf("event %q not seen on %s/events: %v", evType, baseURL, sc.Err())
}

// shallowestSplittable returns the shallowest group above full depth.
func shallowestSplittable(groups []bitkey.Group, keyBits int) (bitkey.Group, bool) {
	best, ok := bitkey.Group{}, false
	for _, g := range groups {
		if g.Depth() < keyBits && (!ok || g.Depth() < best.Depth()) {
			best, ok = g, true
		}
	}
	return best, ok
}

// TestHubReplicaPushMetrics registers continuous queries on a live 3-node
// TCP cluster and checks that /metrics exports the holder's replica pushes by
// kind and its refused deltas, agreeing with the node's own counters, and
// lints clean.
func TestHubReplicaPushMetrics(t *testing.T) {
	c := newTestCluster(t, 3)
	cli := c.client(t)
	hi := c.holderIdx(t)
	region := c.nodes[hi].Server().ActiveGroups()[0]
	for i := 0; i < 8; i++ {
		q := cq.Query{ID: fmt.Sprintf("q-%d", i), Region: region}
		if _, err := cli.Register(q); err != nil {
			t.Fatalf("Register %s: %v", q.ID, err)
		}
	}
	rp := c.nodes[hi].ReplicaPushes()
	if rp.Full == 0 || rp.Delta == 0 || rp.DeltaRefused != 0 {
		t.Fatalf("replica pushes %+v: want full and delta pushes, none refused", rp)
	}
	code, body := httpGet(t, c.srvs[hi].URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, lintErr := range metrics.LintPrometheus(strings.NewReader(body)) {
		t.Errorf("promlint: %v", lintErr)
	}
	for _, line := range []string{
		fmt.Sprintf(`clash_replica_pushes_total{kind="full"} %d`, rp.Full),
		fmt.Sprintf(`clash_replica_pushes_total{kind="delta"} %d`, rp.Delta),
		"clash_replica_delta_refused_total 0",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestHubControlPlane drives a live 3-node TCP cluster through traced
// publishes and an admin split, then checks every read endpoint: /metrics
// (lints clean, carries the protocol/transport/trace families), /status,
// /topology (complete ring walk), /traces/sample, and /events (the split
// event arrives on a live SSE stream).
func TestHubControlPlane(t *testing.T) {
	c := newTestCluster(t, 3)
	cli := c.client(t)
	cli.SetTraceEvery(1)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		key := bitkey.Key{Value: uint64(rng.Intn(1 << 16)), Bits: 16}
		if _, err := cli.Publish(key, map[string]float64{"speed": float64(rng.Intn(100))}, nil); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}

	hi := c.holderIdx(t)
	base := c.srvs[hi].URL

	// Live event stream: subscribe first, then trigger the split. Ending
	// the test cancels the stream, so a failure below never leaves it open
	// for the servers' Close to wait on.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type awaited struct {
		ev  overlay.Event
		err error
	}
	evCh := make(chan awaited, 1)
	go func() {
		ev, err := awaitEvent(ctx, base, overlay.EventSplit)
		evCh <- awaited{ev, err}
	}()
	// Give the stream a moment to attach so the test exercises live fan-out
	// (replay would still catch the event either way).
	time.Sleep(50 * time.Millisecond)

	// A split keeps splitting the right child while the DHT maps it back to
	// this node. When one node owns nearly the whole ring, that chain can
	// reach full depth without moving anything: the split answers 409 and
	// emits no event, but leaves the chain's groups active. The shallowest
	// active group (the longest chain left) is tried next, up to 32 times.
	var group bitkey.Group
	var failures []string
	for {
		g, ok := shallowestSplittable(c.nodes[hi].Server().ActiveGroups(), c.cfg.KeyBits)
		if !ok || len(failures) == 32 {
			t.Fatalf("admin split: no group of node %d split: %v", hi, failures)
		}
		code, body := httpPost(t, base+"/admin/split/"+g.String())
		if code == http.StatusOK {
			group = g
			break
		}
		failures = append(failures, fmt.Sprintf("%v: %d %s", g, code, body))
	}
	select {
	case got := <-evCh:
		if got.err != nil {
			t.Fatal(got.err)
		}
		ev := got.ev
		if ev.Group != group.String() {
			t.Errorf("split event group = %q, want %q", ev.Group, group)
		}
		if ev.Seq == 0 || ev.Node != c.nodes[hi].Addr() {
			t.Errorf("split event not stamped: %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("split event never arrived on /events")
	}

	// Metrics: parseable, linted, and carrying the expected families.
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, lintErr := range metrics.LintPrometheus(strings.NewReader(body)) {
		t.Errorf("promlint: %v", lintErr)
	}
	for _, family := range []string{
		"clash_node_info", "clash_splits_total", "clash_merges_total",
		"clash_groups_accepted_total", "clash_groups_released_total",
		"clash_groups_recovered_total", "clash_objects_total",
		"clash_load_fraction", "clash_groups_active", "clash_queries",
		"clash_group_load_fraction", "clash_transport_frames_total",
		"clash_transport_bytes_total", "clash_transport_in_flight",
		"clash_suspicion_score", "clash_trace_stage_seconds",
		"clash_events_total",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(body, `clash_events_total{type="split"}`) {
		t.Error("/metrics missing split event count")
	}
	// The scrape must agree with the node's own counter (which also counts
	// the bootstrap partition splits).
	splits := c.nodes[hi].Server().Counters().Splits
	if splits < 1 {
		t.Errorf("splits counter = %d after admin split", splits)
	}
	if !strings.Contains(body, fmt.Sprintf("clash_splits_total %d", splits)) {
		t.Errorf("/metrics clash_splits_total disagrees with node counter %d", splits)
	}
	if !strings.Contains(body, `clash_trace_stage_seconds_count{stage="route"}`) {
		t.Error("/metrics missing route-stage trace histogram samples")
	}

	// Traces: the sampled publishes produced records with a route stage.
	code, body = httpGet(t, base+"/traces/sample")
	if code != http.StatusOK {
		t.Fatalf("/traces/sample: %d", code)
	}
	var sample TraceSample
	if err := json.Unmarshal([]byte(body), &sample); err != nil {
		t.Fatalf("/traces/sample JSON: %v", err)
	}
	if sample.Count == 0 || len(sample.Recent) == 0 {
		t.Fatalf("no traces sampled: %+v", sample)
	}
	if _, ok := sample.Stages[overlay.TraceStageRoute]; !ok {
		t.Errorf("trace sample missing route stage: %v", sample.Stages)
	}

	// Status passthrough.
	code, body = httpGet(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status: %d", code)
	}
	var st overlay.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status JSON: %v", err)
	}
	if st.Addr != c.nodes[hi].Addr() {
		t.Errorf("/status addr = %q, want %q", st.Addr, c.nodes[hi].Addr())
	}

	// Topology: the walk closes over all three members and sees all groups
	// (4 bootstrap roots; the split replaced one with its two children).
	code, body = httpGet(t, base+"/topology")
	if code != http.StatusOK {
		t.Fatalf("/topology: %d", code)
	}
	var topo TopologyView
	if err := json.Unmarshal([]byte(body), &topo); err != nil {
		t.Fatalf("/topology JSON: %v", err)
	}
	if !topo.Complete {
		t.Errorf("topology walk incomplete: %+v", topo)
	}
	if len(topo.Nodes) != 3 {
		t.Errorf("topology saw %d nodes, want 3", len(topo.Nodes))
	}
	groups := 0
	for _, n := range topo.Nodes {
		groups += len(n.Groups)
	}
	if groups < 4 {
		t.Errorf("topology saw %d groups, want >= 4: %+v", groups, topo.Nodes)
	}

	// Method guard: admin verbs reject GET.
	if code, _ := httpGet(t, base+"/admin/drain"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/drain = %d, want 405", code)
	}
}

// TestHubRecoveryEvents kills a group-holding node and checks the crash
// recovery surfaces on the survivors' control planes: a recovery event on
// /events and a non-zero clash_groups_recovered_total on /metrics.
func TestHubRecoveryEvents(t *testing.T) {
	c := newTestCluster(t, 4)
	cli := c.client(t)
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
	// Replicate the registered state to successors. If a split had to put a
	// group off the bootstrap node, one more load check replicates the new
	// holder's state; the bootstrap node checks first, before the new
	// holder's first load report, so it cannot merge the child straight back.
	c.check(c.nodes)
	c.check(c.nodes)
	if c.spreadOffBootstrap(t) {
		c.check(c.nodes)
	}

	var victim int
	for i := 1; i < len(c.nodes); i++ {
		if len(c.nodes[i].Server().ActiveGroups()) > 0 {
			victim = i
			break
		}
	}
	if victim == 0 {
		t.Fatal("no non-bootstrap node holds a group")
	}
	c.srvs[victim].Close()
	if err := c.nodes[victim].Close(); err != nil {
		t.Fatal(err)
	}
	var survivors []*overlay.Node
	for i, n := range c.nodes {
		if i != victim {
			survivors = append(survivors, n)
		}
	}

	recovered := -1
	for round := 0; round < 20 && recovered < 0; round++ {
		c.tick(survivors, 2)
		c.check(survivors)
		for i, n := range c.nodes {
			if i != victim && n.Server().Counters().GroupsRecovered > 0 {
				recovered = i
			}
		}
	}
	if recovered < 0 {
		t.Fatal("no survivor promoted a replica")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ev, err := awaitEvent(ctx, c.srvs[recovered].URL, overlay.EventRecovery)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Peer != c.nodes[victim].Addr() {
		t.Errorf("recovery event peer = %q, want victim %q", ev.Peer, c.nodes[victim].Addr())
	}
	_, body := httpGet(t, c.srvs[recovered].URL+"/metrics")
	if !strings.Contains(body, "clash_groups_recovered_total") ||
		strings.Contains(body, "clash_groups_recovered_total 0\n") {
		t.Error("/metrics does not report recovered groups")
	}
	// The crash also produced suspicion verdicts on the survivors' streams.
	found := false
	for i := range c.nodes {
		if i == victim {
			continue
		}
		for _, ev := range c.hubs[i].bus.Replay(0) {
			if ev.Type == overlay.EventSuspicion {
				found = true
			}
		}
	}
	if !found {
		t.Error("no suspicion-verdict event on any survivor")
	}
}

// TestHubAdminDrainZeroLostCQ registers one query per root region, drains a
// group-holding node through the admin verb, and checks the node empties
// with every query conserved; the node then shuts down and every region
// still answers with its query — zero lost continuous queries, zero replica
// promotions (the graceful path, not crash recovery). The post-shutdown
// publish check matters because drain places self-owned groups on the
// successor — exactly where the DHT maps the range once the drained node
// leaves the ring.
func TestHubAdminDrainZeroLostCQ(t *testing.T) {
	c := newTestCluster(t, 3)
	c.spreadOffBootstrap(t)
	cli := c.client(t)
	queries := make([]cq.Query, 0, 4)
	for i, rg := range []string{"00", "01", "10", "11"} {
		q := cq.Query{
			ID:         fmt.Sprintf("drain-q-%d", i),
			Region:     bitkey.MustParseGroup(rg),
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		if _, err := cli.Register(q); err != nil {
			t.Fatalf("Register %s: %v", q.ID, err)
		}
		queries = append(queries, q)
	}
	before := 0
	for _, n := range c.nodes {
		before += n.Engine().Len()
	}
	if before != len(queries) {
		t.Fatalf("cluster stores %d queries before drain, want %d", before, len(queries))
	}

	hi := c.holderIdx(t)
	if hi == 0 {
		t.Fatal("only the bootstrap node (the client's contact) holds groups")
	}
	target := c.nodes[hi]
	base := c.srvs[hi].URL
	code, body := httpPost(t, base+"/admin/drain")
	if code != http.StatusOK {
		t.Fatalf("admin drain: %d %s", code, body)
	}
	var dr struct {
		Draining bool `json:"draining"`
		Moved    int  `json:"moved"`
	}
	if err := json.Unmarshal([]byte(body), &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Draining || dr.Moved == 0 {
		t.Fatalf("drain reply %s, want draining with moved > 0", body)
	}
	// A drain pass is synchronous; rebalance (while draining) re-runs it in
	// case anything bounced back.
	for i := 0; i < 5 && len(target.Server().ActiveGroups()) > 0; i++ {
		httpPost(t, base+"/admin/rebalance")
	}
	if got := target.Server().ActiveGroups(); len(got) != 0 {
		t.Fatalf("drained node still holds %v", got)
	}
	if !target.Draining() {
		t.Error("node not in drain mode after /admin/drain")
	}
	_, mbody := httpGet(t, base+"/metrics")
	if !strings.Contains(mbody, "clash_draining 1") {
		t.Error("/metrics does not report clash_draining 1")
	}

	// Zero lost queries: every query is still stored, none on the drainee.
	after := 0
	for _, n := range c.nodes {
		after += n.Engine().Len()
	}
	if after != before {
		t.Fatalf("cluster stores %d queries after drain, want %d", after, before)
	}
	if target.Engine().Len() != 0 {
		t.Fatalf("drained node still stores %d queries", target.Engine().Len())
	}
	// The drain moved groups without losing or duplicating any.
	var groups []bitkey.Group
	for _, n := range c.nodes {
		groups = append(groups, n.Server().ActiveGroups()...)
	}
	if vs := invariant.Tiling(groups); len(vs) > 0 {
		t.Fatalf("active groups %v do not tile the key space after the drain: %v", groups, vs)
	}

	// The drain left a begin event and at least one moved event on the bus.
	evs := c.hubs[hi].bus.Replay(0)
	begin, moved := false, false
	for _, ev := range evs {
		if ev.Type == overlay.EventDrain {
			if ev.Detail == "begin" {
				begin = true
			} else if strings.HasPrefix(ev.Detail, "moved groups=") {
				moved = true
			}
		}
	}
	if !begin || !moved {
		t.Errorf("drain events incomplete (begin=%v moved=%v): %+v", begin, moved, evs)
	}

	// Undrain restores normal operation; re-drain before the shutdown below.
	if code, _ := httpPost(t, base+"/admin/undrain"); code != http.StatusOK {
		t.Errorf("admin undrain: %d", code)
	}
	if target.Draining() {
		t.Error("node still draining after /admin/undrain")
	}
	httpPost(t, base+"/admin/drain")

	// Graceful shutdown: the drained (now empty) node leaves; the ring
	// repairs and every region must still answer its query, without any
	// replica promotion — the groups moved in the drain, nothing crashed.
	c.srvs[hi].Close()
	if err := target.Close(); err != nil {
		t.Fatal(err)
	}
	var survivors []*overlay.Node
	for i, n := range c.nodes {
		if i != hi {
			survivors = append(survivors, n)
		}
	}
	for _, q := range queries {
		key, err := q.Region.VirtualKey(c.cfg.KeyBits)
		if err != nil {
			t.Fatal(err)
		}
		var res overlay.PublishResult
		for attempt := 0; attempt < 20; attempt++ {
			if res, err = cli.Publish(key, map[string]float64{"speed": 80}, nil); err == nil {
				break
			}
			c.tick(survivors, 2)
			c.check(survivors)
		}
		if err != nil {
			t.Fatalf("Publish into %v after drained shutdown: %v", q.Region, err)
		}
		found := false
		for _, id := range res.Matches {
			if id == q.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("query %s lost in drain (matches %v)", q.ID, res.Matches)
		}
	}
	for _, n := range survivors {
		if rec := n.Server().Counters().GroupsRecovered; rec != 0 {
			t.Errorf("%s promoted %d replicas after a graceful drain-shutdown", n.Addr(), rec)
		}
	}
}

// TestHubStatusBounded checks that a node's /status body does not grow with
// uptime: 200 load checks leave it within a small constant of its size after
// the fixture's first 2.
func TestHubStatusBounded(t *testing.T) {
	c := newTestCluster(t, 1)
	base := c.srvs[0].URL
	_, before := httpGet(t, base+"/status")
	for i := 0; i < 200; i++ {
		c.check(c.nodes)
	}
	code, after := httpGet(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status: %d", code)
	}
	if len(after) > len(before)+64 {
		t.Errorf("/status grew from %d to %d bytes over 200 load checks", len(before), len(after))
	}
}

// TestHubStageRecordedOnce checks that /traces/sample and /metrics read the
// same stage histograms: after traced traffic, each stage's Count in the
// sample equals its clash_trace_stage_seconds_count. No query is registered,
// so no asynchronous delivery stage can land between the two reads.
func TestHubStageRecordedOnce(t *testing.T) {
	c := newTestCluster(t, 1)
	cli := c.client(t)
	cli.SetTraceEvery(1)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		key := bitkey.Key{Value: uint64(rng.Intn(1 << 16)), Bits: 16}
		if _, err := cli.Publish(key, map[string]float64{"speed": 1}, nil); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	base := c.srvs[0].URL
	_, body := httpGet(t, base+"/traces/sample")
	var sample TraceSample
	if err := json.Unmarshal([]byte(body), &sample); err != nil {
		t.Fatalf("/traces/sample JSON: %v", err)
	}
	if _, ok := sample.Stages[overlay.TraceStageRoute]; !ok {
		t.Fatalf("no route stage after traced traffic: %v", sample.Stages)
	}
	_, scrape := httpGet(t, base+"/metrics")
	for stage, s := range sample.Stages {
		line := fmt.Sprintf("clash_trace_stage_seconds_count{stage=%q} %d\n", stage, s.Count)
		if !strings.Contains(scrape, line) {
			t.Errorf("stage %s: /traces/sample count %d has no matching %q in /metrics", stage, s.Count, strings.TrimSpace(line))
		}
	}
}
