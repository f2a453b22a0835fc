package overlay

import (
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

	// The dead node's queries must now be served by the survivors: a
	// matching packet into each lost query's region reports the query and
	// push-delivers the match.
	for _, q := range lostQueries {
		key, err := q.Region.VirtualKey(cfg.KeyBits)
		if err != nil {
			t.Fatal(err)
		}
		var res *PublishResult
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
	q := cq.Query{ID: "q-moving", Region: moving}
	if err := n0.Engine().Register(q); err != nil {
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
	if got := len(n1.Engine().QueriesInGroup(moving)); got != 1 {
		t.Errorf("node-1 stores %d queries for %v, want 1", got, moving)
	}
	if got := len(n0.Engine().QueriesInGroup(moving)); got != 0 {
		t.Errorf("node-0 still stores %d queries for %v, want 0", got, moving)
	}
}

// TestPendingTransferDedupAndDrop checks the parked-transfer bookkeeping on a
// two-node ring whose transfer target stays dead: repeated failed deliveries
// of the same group refresh one parked entry instead of stacking duplicates,
// and after the retry budget is exhausted the transfer is dropped (counted)
// and the group taken back locally — the key range and its query state must
// not vanish.
func TestPendingTransferDedupAndDrop(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	n0, err := NewNode(netw.Endpoint("node-0"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewNode(netw.Endpoint("node-1"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.Join(n0.Addr()); err != nil {
		t.Fatal(err)
	}
	converge([]*Node{n0, n1}, 6)
	// The target dies before the transfer is delivered; the ring still
	// lists it (no maintenance runs), so every retry re-resolves to it.
	netw.SetDown(n1.Addr(), true)

	g := bitkey.MustParseGroup("0101")
	tr := core.Transfer{Group: g, To: core.ServerID(n1.Addr()), Parent: core.ServerID(n0.Addr())}
	q := cq.Query{ID: "q-x", Region: g}
	data, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	states := []queryState{{Query: data}}

	// Two independent delivery attempts for the same group park ONE entry.
	n0.deliverTransfer(pendingTransfer{transfer: tr, queries: states, epoch: 1})
	n0.deliverTransfer(pendingTransfer{transfer: tr, queries: states, epoch: 1})
	n0.mu.Lock()
	parked := len(n0.pending)
	n0.mu.Unlock()
	if parked != 1 {
		t.Fatalf("parked entries = %d, want 1 (dedup by group)", parked)
	}

	// Retries burn the budget; the entry must then be abandoned — counted,
	// and the group taken back locally so the range stays served.
	for i := 0; i < transferRetryBudget+2; i++ {
		n0.retryPending()
	}
	n0.mu.Lock()
	parked = len(n0.pending)
	n0.mu.Unlock()
	if parked != 0 {
		t.Errorf("parked entries = %d after budget, want 0", parked)
	}
	if n0.TransferDrops() != 1 {
		t.Errorf("TransferDrops = %d, want 1", n0.TransferDrops())
	}
	if holderOf([]*Node{n0}, g) == "" {
		t.Error("abandoned transfer's group not taken back: range unowned")
	}
	if got := len(n0.Engine().QueriesInGroup(g)); got != 1 {
		t.Errorf("taken-back group stores %d queries, want 1", got)
	}
	if st := n0.Status(); st.TransferDrops != 1 {
		t.Errorf("status drops = %d, want 1", st.TransferDrops)
	}
}

// TestPendingTransferRehomesToSelf checks retry re-resolution: when the ring
// re-maps an undeliverable transfer's range back to the sender (here: the
// sender is the only node left), the retry keeps the group locally instead of
// dialing the dead split-time target forever.
func TestPendingTransferRehomesToSelf(t *testing.T) {
	netw := NewMemNetwork()
	node, err := NewNode(netw.Endpoint("node-0"), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := bitkey.MustParseGroup("0110")
	tr := core.Transfer{Group: g, To: "nowhere", Parent: core.ServerID(node.Addr())}
	node.deliverTransfer(pendingTransfer{transfer: tr, epoch: 1})
	node.retryPending() // re-resolves owner == self → take back
	if holderOf([]*Node{node}, g) == "" {
		t.Error("re-homed transfer's group not active locally")
	}
	if node.TransferDrops() != 0 {
		t.Errorf("TransferDrops = %d, want 0 (re-home is not a drop)", node.TransferDrops())
	}
	node.mu.Lock()
	parked := len(node.pending)
	node.mu.Unlock()
	if parked != 0 {
		t.Errorf("parked entries = %d, want 0", parked)
	}
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
	q := cq.Query{ID: "q-own", Region: g}
	if err := victim.Engine().Register(q); err != nil {
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
	if got := len(reborn.Engine().QueriesInGroup(g)); got != 1 {
		t.Errorf("recovered node stores %d queries in %v, want 1", got, g)
	}
	if err := reborn.Server().Validate(); err != nil {
		t.Errorf("recovered table invalid: %v", err)
	}
}

// TestLooseQueriesSurviveCrash checks that query state parked outside the
// engine — here: extracted into an undeliverable transfer — rides the replica
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
	// Park a query in an undeliverable transfer on the victim: the query is
	// out of the engine (invisible to the per-group snapshot) and lives only
	// in the pending map.
	g := victim.Server().ActiveGroups()[0]
	q := cq.Query{ID: "q-loose", Region: g}
	data, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	victim.mu.Lock()
	victim.pending["parked"] = pendingTransfer{
		transfer: core.Transfer{Group: bitkey.MustParseGroup("010101"), To: "unreachable-peer"},
		queries:  []queryState{{Query: data}},
		epoch:    1,
	}
	victim.mu.Unlock()
	victim.replicate() // loose records reach the successors
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
