package overlay

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"clash/internal/bitkey"
	"clash/internal/core"
	"clash/internal/cq"
)

// TestOverlayCrashRecoveryTCP is the fault-tolerance acceptance scenario over
// real sockets: a 4-node overlay on loopback TCP serves a workload with
// continuous queries registered in every root region, one group-holding node
// is killed mid-workload, and the survivors must promote their replicas of
// the dead node's key groups — after which a matching packet into each lost
// region still reports (and push-delivers) its query. Time is stepped
// virtually (explicit now passed to LoadCheck), so the test makes
// deterministic progress instead of racing wall-clock timers.
func TestOverlayCrashRecoveryTCP(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicationFactor = 2

	nodes := make([]*Node, 4)
	for i := range nodes {
		tr, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenTCP: %v", err)
		}
		node, err := NewNode(tr, cfg)
		if err != nil {
			t.Fatalf("NewNode %d: %v", i, err)
		}
		defer node.Close()
		nodes[i] = node
	}
	if err := nodes[0].BootstrapRoots(); err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes[1:] {
		if err := node.Join(nodes[0].Addr()); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	tick := func(ns []*Node, rounds int) {
		for r := 0; r < rounds; r++ {
			for _, n := range ns {
				n.Tick()
				_ = n.FixAllFingers()
			}
		}
	}
	now := time.Now()
	check := func(ns []*Node) {
		now = now.Add(cfg.LoadCheckInterval)
		for _, n := range ns {
			n.LoadCheck(now)
		}
	}
	tick(nodes, 8)
	check(nodes)
	check(nodes)

	cliTr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cliTr, cfg.KeyBits, cfg.Space, nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// One continuous query per root region, so whichever node we kill holds
	// at least one of them.
	regions := []string{"00", "01", "10", "11"}
	for i, rg := range regions {
		q := cq.Query{
			ID:         fmt.Sprintf("q-%d", i),
			Region:     bitkey.MustParseGroup(rg),
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		if _, err := client.Register(q); err != nil {
			t.Fatalf("Register %s: %v", q.ID, err)
		}
	}
	// A couple of load checks replicate the registered state to successors.
	check(nodes)
	check(nodes)

	// Kill a non-bootstrap node that holds at least one group. If a split
	// had to create one, a further load check replicates the new holder's
	// state; the bootstrap node checks first, before the new holder's first
	// load report, so it cannot merge the child straight back.
	if spreadOffBootstrap(t, nodes) {
		check(nodes)
	}
	var victim *Node
	for _, n := range nodes[1:] {
		if len(n.Server().ActiveGroups()) > 0 {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Fatal("no non-bootstrap node holds a group")
	}
	lost := victim.Server().ActiveGroups()
	lostQueries := victim.Engine().All()
	if err := victim.Close(); err != nil {
		t.Fatalf("victim close: %v", err)
	}

	survivors := nodesWithout(nodes, victim)
	// Ring maintenance detects the dead predecessor and promotes the
	// replicas; bounded rounds, virtual-stepped load checks.
	for i := 0; i < 20; i++ {
		tick(survivors, 2)
		check(survivors)
		if allRecovered(survivors, lost) {
			break
		}
	}
	for _, g := range lost {
		if coverOf(survivors, g) == "" {
			t.Fatalf("group %v not recovered by any survivor", g)
		}
	}
	recovered := 0
	for _, n := range survivors {
		recovered += n.Server().Counters().GroupsRecovered
	}
	if recovered == 0 {
		t.Fatal("no survivor promoted a replica (GroupsRecovered == 0)")
	}
	assertTiling(t, survivors)

	// The dead node's queries must now be served by the survivors: a
	// matching packet into each lost query's region reports the query and
	// push-delivers the match.
	for _, q := range lostQueries {
		key, err := q.Region.VirtualKey(cfg.KeyBits)
		if err != nil {
			t.Fatal(err)
		}
		var res PublishResult
		for attempt := 0; attempt < 5; attempt++ {
			res, err = client.Publish(key, map[string]float64{"speed": 80}, nil)
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("Publish into %v after crash: %v", q.Region, err)
		}
		found := false
		for _, id := range res.Matches {
			if id == q.ID {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("query %s did not match after crash recovery (matches %v)", q.ID, res.Matches)
		}
	}
	if len(lostQueries) > 0 {
		select {
		case <-client.Matches():
		case <-time.After(5 * time.Second):
			t.Error("no match notification push-delivered after recovery")
		}
	}
}

func allRecovered(nodes []*Node, groups []bitkey.Group) bool {
	for _, g := range groups {
		if coverOf(nodes, g) == "" {
			return false
		}
	}
	return true
}

// coverOf returns the address of the node whose active group contains g
// ("" when none): g itself, or an ancestor that a recovered split child was
// merged back into by its parent.
func coverOf(nodes []*Node, g bitkey.Group) string {
	for _, n := range nodes {
		for _, ag := range n.Server().ActiveGroups() {
			if ag.ContainsGroup(g) {
				return n.Addr()
			}
		}
	}
	return ""
}

// holderOf returns the address of the node with g active ("" when none).
func holderOf(nodes []*Node, g bitkey.Group) string {
	for _, n := range nodes {
		for _, ag := range n.Server().ActiveGroups() {
			if ag.Equal(g) {
				return n.Addr()
			}
		}
	}
	return ""
}

// lossyTransport wraps a Transport and simulates reply loss: for message
// types armed with DropReply, the call is delivered to the remote (the
// handler runs, state changes land) but the caller sees a transport failure.
type lossyTransport struct {
	Transport
	mu          sync.Mutex
	dropReplies map[string]int
}

func (f *lossyTransport) DropReply(msgType string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dropReplies == nil {
		f.dropReplies = make(map[string]int)
	}
	f.dropReplies[msgType] += n
}

func (f *lossyTransport) Call(addr, msgType string, payload []byte) ([]byte, error) {
	return f.CallOpts(addr, msgType, payload, CallOpts{})
}

func (f *lossyTransport) CallOpts(addr, msgType string, payload []byte, opts CallOpts) ([]byte, error) {
	f.mu.Lock()
	drop := f.dropReplies[msgType] > 0
	if drop {
		f.dropReplies[msgType]--
	}
	f.mu.Unlock()
	reply, err := f.Transport.CallOpts(addr, msgType, payload, opts)
	if drop && err == nil {
		return nil, fmt.Errorf("%w: reply lost (test)", ErrUnreachable)
	}
	return reply, err
}

// TestReconcileReplyLostIdempotent is the regression test for the
// release-then-send window in reconcileOwnership: the ACCEPT_KEYGROUP request
// lands on the new owner but the reply is lost, so the sender takes the group
// back and the range is briefly active on two nodes. The next reconciliation
// pass must collapse the duplicate through the epoch-idempotent accept — one
// holder at the end, the query state intact, both tables prefix-free.
func TestReconcileReplyLostIdempotent(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	cfg.BootstrapDepth = 3 // 8 roots: some are guaranteed to map to node-1

	flaky := &lossyTransport{Transport: netw.Endpoint("node-0")}
	n0, err := NewNode(flaky, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewNode(netw.Endpoint("node-1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{n0, n1}
	if err := n0.BootstrapRoots(); err != nil {
		t.Fatal(err)
	}
	if err := n1.Join(n0.Addr()); err != nil {
		t.Fatal(err)
	}
	converge(nodes, 6)

	// Find the root groups that must move from node-0 to node-1 and park a
	// query in the first of them.
	var moving bitkey.Group
	movingCount := 0
	for _, g := range n0.Server().ActiveGroups() {
		vk, err := g.VirtualKey(cfg.KeyBits)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := n0.mapGroup(vk)
		if err != nil {
			t.Fatal(err)
		}
		if owner == core.ServerID(n1.Addr()) {
			if moving.Depth() == 0 {
				moving = g
			}
			movingCount++
		}
	}
	if moving.Depth() == 0 {
		t.Fatal("no root group maps to node-1; test setup degenerate")
	}
	c, err := NewClient(netw.Endpoint("client-1"), cfg.KeyBits, cfg.Space, n0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(cq.Query{ID: "q-moving", Region: moving}); err != nil {
		t.Fatal(err)
	}

	// First pass: exactly the replies of this pass's ACCEPT_KEYGROUP
	// transfers are lost after delivery. The groups go active on node-1 AND
	// are taken back on node-0 — the dual-active window under test.
	flaky.DropReply(TypeAcceptKeyGroup, movingCount)
	now := time.Now()
	n0.LoadCheck(now)
	if holderOf([]*Node{n1}, moving) == "" {
		t.Fatal("request did not land on node-1 (test harness broken)")
	}
	if holderOf([]*Node{n0}, moving) == "" {
		t.Fatal("node-0 did not take the group back on reply loss")
	}

	// Second pass: the retry (with a fresh epoch) must collapse the
	// duplicate via the idempotent accept.
	now = now.Add(cfg.LoadCheckInterval)
	n0.LoadCheck(now)
	if holderOf([]*Node{n0}, moving) != "" {
		t.Fatalf("group %v still active on node-0 after retry", moving)
	}
	if holderOf([]*Node{n1}, moving) == "" {
		t.Fatalf("group %v not active on node-1 after retry", moving)
	}
	for _, n := range nodes {
		if err := n.Server().Validate(); err != nil {
			t.Errorf("%s table invariant: %v", n.Addr(), err)
		}
	}
	// The query followed the group (installed on node-1 exactly once).
	if got := n1.Engine().CountInGroup(moving); got != 1 {
		t.Errorf("node-1 stores %d queries for %v, want 1", got, moving)
	}
	if got := n0.Engine().CountInGroup(moving); got != 0 {
		t.Errorf("node-0 still stores %d queries for %v, want 0", got, moving)
	}
}

// splitTowardPeer builds a two-node overlay and finds an active group whose
// right child the DHT maps to the other node: splitting it hands that right
// child from one node to the other.
func splitTowardPeer(t *testing.T, netw *MemNetwork, cfg Config) (from, to *Node, g bitkey.Group) {
	t.Helper()
	nodes := buildOverlay(t, netw, 2, cfg)
	for i, n := range nodes {
		for _, g := range n.Server().ActiveGroups() {
			_, right, err := g.Split()
			if err != nil {
				t.Fatal(err)
			}
			vk, err := right.VirtualKey(cfg.KeyBits)
			if err != nil {
				t.Fatal(err)
			}
			owner, err := n.mapGroup(vk)
			if err != nil {
				t.Fatal(err)
			}
			if peer := nodes[1-i]; owner == core.ServerID(peer.Addr()) {
				return n, peer, g
			}
		}
	}
	t.Fatal("no active group's right child maps to the other node (test setup degenerate)")
	return nil, nil, bitkey.Group{}
}

// TestFailedHandOffIsTakenBack checks the take-back rule of a group
// hand-off: a split whose right child's owner is down keeps that child
// active on the splitter, with its query, and the next load check after the
// owner comes back hands the child, query included, to it.
func TestFailedHandOffIsTakenBack(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	from, to, g := splitTowardPeer(t, netw, cfg)
	_, right, err := g.Split()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(netw.Endpoint("client-1"), cfg.KeyBits, cfg.Space, from.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(cq.Query{ID: "q-right", Region: right}); err != nil {
		t.Fatal(err)
	}

	netw.SetDown(to.Addr(), true)
	if err := from.ForceSplit(g); err != nil {
		t.Fatalf("ForceSplit(%v): %v", g, err)
	}
	if holderOf([]*Node{from}, right) == "" {
		t.Fatalf("%v not taken back on %s after a failed hand-off", right, from.Addr())
	}
	if got := from.Engine().CountInGroup(right); got != 1 {
		t.Errorf("%s stores %d queries in %v, want 1", from.Addr(), got, right)
	}

	netw.SetDown(to.Addr(), false)
	from.LoadCheck(time.Now())
	if holderOf([]*Node{from}, right) != "" {
		t.Errorf("%v still active on %s after the owner came back", right, from.Addr())
	}
	if holderOf([]*Node{to}, right) == "" {
		t.Errorf("%v not active on its owner %s", right, to.Addr())
	}
	if got := to.Engine().CountInGroup(right); got != 1 {
		t.Errorf("%s stores %d queries in %v, want 1", to.Addr(), got, right)
	}
	if got := from.Engine().CountInGroup(right); got != 0 {
		t.Errorf("%s still stores %d queries in %v, want 0", from.Addr(), got, right)
	}
}

// TestSplitToDownTargetKeepsRangeServed checks that a split whose right child
// cannot be delivered leaves no key unserved: the two nodes' active groups
// still tile the key space.
func TestSplitToDownTargetKeepsRangeServed(t *testing.T) {
	netw := NewMemNetwork()
	from, to, g := splitTowardPeer(t, netw, testConfig())
	netw.SetDown(to.Addr(), true)
	if err := from.ForceSplit(g); err != nil {
		t.Fatalf("ForceSplit(%v): %v", g, err)
	}
	assertTiling(t, []*Node{from, to})
}

// TestRecoverOwnStateAfterRestart checks the pull path: a node crashes, its
// replicas survive on a successor, and a fresh node restarted on the same
// address recovers its pre-crash groups and queries by querying the
// successors — even though the ring never had time to detect the failure.
func TestRecoverOwnStateAfterRestart(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	nodes := buildOverlay(t, netw, 3, cfg)
	spreadOffBootstrap(t, nodes)

	var victim *Node
	for _, n := range nodes[1:] {
		if len(n.Server().ActiveGroups()) > 0 {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Fatal("no non-bootstrap holder")
	}
	g := victim.Server().ActiveGroups()[0]
	// A registration pushes the query to the successors; a query put into
	// the engine behind the node's back would reach no replica.
	c, err := NewClient(netw.Endpoint("client-1"), cfg.KeyBits, cfg.Space, victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(cq.Query{ID: "q-own", Region: g}); err != nil {
		t.Fatal(err)
	}
	// Replicate the state, then crash the victim before anyone notices.
	checkAll(nodes)
	lost := victim.Server().ActiveGroups()
	netw.SetDown(victim.Addr(), true)

	// Restart: a fresh, empty node on the same address re-joins and must
	// pull its old state back from the successors' replicas.
	netw.SetDown(victim.Addr(), false)
	reborn, err := NewNode(netw.Endpoint(victim.Addr()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reborn.Rejoin(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	for _, g := range lost {
		if holderOf([]*Node{reborn}, g) == "" {
			t.Errorf("group %v not recovered on restart", g)
		}
	}
	if got := reborn.Engine().CountInGroup(g); got != 1 {
		t.Errorf("recovered node stores %d queries in %v, want 1", got, g)
	}
	if err := reborn.Server().Validate(); err != nil {
		t.Errorf("recovered table invalid: %v", err)
	}
}

// TestLooseQueriesSurviveCrash checks that query state parked outside the
// engine — here: an orphan awaiting re-placement — rides the replica
// pushes as loose records and is re-placed by the survivors after the parking
// node crashes, instead of dying with it.
func TestLooseQueriesSurviveCrash(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	nodes := buildOverlay(t, netw, 3, cfg)
	spreadOffBootstrap(t, nodes)

	var victim *Node
	for _, n := range nodes[1:] {
		if len(n.Server().ActiveGroups()) > 0 {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Fatal("no non-bootstrap holder")
	}
	// Park a query as an orphan on the victim: the query is out of the
	// engine (invisible to the per-group snapshot) and lives only in the
	// orphan requeue.
	g := victim.Server().ActiveGroups()[0]
	q := cq.Query{ID: "q-loose", Region: g}
	data, err := q.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	victim.orphanQueries([]queryState{{Query: data}})
	victim.replicate(spanRef{}) // loose records reach the successors
	netw.SetDown(victim.Addr(), true)

	survivors := nodesWithout(nodes, victim)
	now := time.Now()
	found := func() bool {
		for _, n := range survivors {
			for _, sq := range n.Engine().All() {
				if sq.ID == "q-loose" {
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < 30 && !found(); i++ {
		converge(survivors, 2)
		now = now.Add(cfg.LoadCheckInterval)
		for _, n := range survivors {
			n.LoadCheck(now)
		}
	}
	if !found() {
		t.Fatal("loose (parked) query did not survive the parking node's crash")
	}
}

// TestStoredReplicaOwnsItsBytes pins that a stored replica set is a copy: the
// transport recycles a request's payload buffer once the handler returns, so
// overwriting that buffer afterwards must not change what a recovery pull
// gets back. The pull answers with exactly the pushed groups and loose
// records, without the push's trace context, and with an empty version-0
// set for an origin never pushed.
func TestStoredReplicaOwnsItsBytes(t *testing.T) {
	netw := NewMemNetwork()
	n, err := NewNode(netw.Endpoint("node-0"), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rec := func(id string) []byte {
		q := cq.Query{ID: id, Region: bitkey.MustParseGroup("01")}
		data, err := q.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		return (&queryState{Query: data, Subscriber: "client-1"}).MarshalWire(nil)
	}
	push := replicateMsg{
		Origin:      "node-9",
		Incarnation: 3,
		Version:     7,
		Groups: []replicaGroupRec{
			{GroupValue: 0b01, GroupBits: 2, Parent: "node-8", Epoch: 2, Queries: [][]byte{rec("q-a"), rec("q-b")}},
			{GroupValue: 0b1, GroupBits: 1, IsRoot: true, Epoch: 1, Queries: [][]byte{rec("q-c")}},
		},
		Loose: [][]byte{rec("q-d")},
	}
	want := push.MarshalWire(nil)
	push.TraceID, push.ParentSpan, push.Hop = 11, 12, 3

	payload := push.MarshalWire(nil)
	if _, err := n.handleReplicate(payload); err != nil {
		t.Fatalf("handleReplicate: %v", err)
	}
	for i := range payload {
		payload[i] = 0xff
	}
	got, err := n.handleRecoverKeyGroups((&recoverMsg{Origin: "node-9"}).MarshalWire(nil))
	if err != nil {
		t.Fatalf("handleRecoverKeyGroups: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered replica set changed after the push buffer was reused:\n got %x\nwant %x", got, want)
	}
	got, err = n.handleRecoverKeyGroups((&recoverMsg{Origin: "node-unknown"}).MarshalWire(nil))
	if err != nil {
		t.Fatalf("handleRecoverKeyGroups: %v", err)
	}
	if none := (&replicateMsg{Origin: "node-unknown"}).MarshalWire(nil); !bytes.Equal(got, none) {
		t.Fatalf("recovered %x for an origin never pushed, want the empty set %x", got, none)
	}
}
