package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/load"
	"clash/internal/overlay"
)

// Fixed cluster shape: three nodes, the paper's 24-bit keys and depth-2
// initial partition. A load-check window is one virtual second.
const (
	numNodes       = 3
	keyBits        = 24
	bootstrapDepth = 2
	checkInterval  = time.Second
)

// clusterConfig selects the fabric and the per-workload knobs.
type clusterConfig struct {
	tcp        bool
	replicas   int
	inlinePush bool
	capacity   float64
	seed       int64
	tracing    *tracing // nil: untraced
}

// Fixed addresses: chord positions hash the address, so ephemeral ports
// would reshape the ring on every run. The TCP ports sit below Linux's
// ephemeral range so outgoing connections cannot hold them.
func nodeAddr(tcp bool, i int) string {
	if tcp {
		return fmt.Sprintf("127.0.0.1:%d", 27101+i)
	}
	return fmt.Sprintf("node-%d", i)
}

func clientAddr(tcp bool, role string, i int) string {
	if tcp {
		port := 27111 + i
		if role == "sub" {
			port = 27121 + i
		}
		return fmt.Sprintf("127.0.0.1:%d", port)
	}
	return fmt.Sprintf("%s-%d", role, i)
}

// cluster is one booted overlay plus the clients the workload attaches.
type cluster struct {
	cfg     clusterConfig
	clk     *vclock
	mem     *overlay.MemNetwork
	space   chord.Space
	nodes   []*overlay.Node
	clients []*overlay.Client
	trs     []overlay.Transport
	tracer  *tracer
	obs     *observer
}

func (c *cluster) endpoint(addr string) (overlay.Transport, error) {
	var tr overlay.Transport
	if c.cfg.tcp {
		t, err := overlay.ListenTCP(addr)
		if err != nil {
			return nil, err
		}
		tr = t
	} else {
		tr = c.mem.Endpoint(addr)
	}
	if c.tracer != nil {
		tr = c.tracer.wrap(tr)
	}
	c.trs = append(c.trs, tr)
	return tr, nil
}

// bootCluster starts the nodes, converges the ring and hands the root groups
// to their DHT owners. Everything runs on the caller's goroutine through
// explicit maintenance passes, so the result depends on nothing but the
// configuration.
func bootCluster(cfg clusterConfig) (*cluster, error) {
	c := &cluster{cfg: cfg, clk: newVClock(), space: chord.DefaultSpace()}
	if !cfg.tcp {
		c.mem = overlay.NewMemNetwork()
		c.mem.SetClock(c.clk)
	}
	if cfg.tracing != nil {
		c.tracer, c.obs = cfg.tracing.t, cfg.tracing.o
	}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	ncfg := overlay.Config{
		KeyBits:           keyBits,
		Space:             c.space,
		Model:             load.DefaultModel(cfg.capacity),
		BootstrapDepth:    bootstrapDepth,
		LoadCheckInterval: checkInterval,
		Clock:             c.clk,
		Seed:              cfg.seed,
		InlineMatchPush:   cfg.inlinePush,
		ReplicationFactor: cfg.replicas,
	}
	for i := 0; i < numNodes; i++ {
		tr, err := c.endpoint(nodeAddr(cfg.tcp, i))
		if err != nil {
			return nil, err
		}
		n, err := overlay.NewNode(tr, ncfg)
		if err != nil {
			return nil, err
		}
		if c.obs != nil {
			n.SetObserver(c.obs)
		}
		c.nodes = append(c.nodes, n)
	}
	c.clk.freeze(0)
	if err := c.nodes[0].BootstrapRoots(); err != nil {
		return nil, err
	}
	c.nodes[0].SetRepairContact(c.nodes[1].Addr())
	for _, n := range c.nodes[1:] {
		if err := n.Join(c.nodes[0].Addr()); err != nil {
			return nil, err
		}
	}
	if err := c.converge(); err != nil {
		return nil, err
	}
	// Two load checks hand every root group to the node its virtual key
	// maps to.
	c.maintain()
	c.maintain()
	ok = true
	return c, nil
}

// converge runs stabilization rounds until every node's successor and
// predecessor are its ring neighbours, then fills the finger tables.
func (c *cluster) converge() error {
	order := append([]*overlay.Node(nil), c.nodes...)
	sort.Slice(order, func(i, j int) bool {
		return c.space.HashString(order[i].Addr()) < c.space.HashString(order[j].Addr())
	})
	converged := func() bool {
		for i, n := range order {
			succ := order[(i+1)%len(order)].Addr()
			pred := order[(i+len(order)-1)%len(order)].Addr()
			s := n.Successors()
			if len(s) == 0 || s[0].Addr != succ || n.Predecessor().Addr != pred {
				return false
			}
		}
		return true
	}
	for round := 0; !converged(); round++ {
		if round == 64 {
			return fmt.Errorf("ring did not converge in %d rounds", round)
		}
		for _, n := range c.nodes {
			n.Tick()
		}
	}
	for _, n := range c.nodes {
		if err := n.FixAllFingers(); err != nil {
			return err
		}
	}
	return nil
}

// maintain runs one load-check pass on every node at the next virtual
// instant, with the clock frozen so each meter window is exactly one
// interval long.
func (c *cluster) maintain() {
	c.clk.freeze(checkInterval)
	now := c.clk.Now()
	for _, n := range c.nodes {
		n.LoadCheck(now)
	}
	c.clk.thaw()
}

func (c *cluster) client(role string, i int) (*overlay.Client, error) {
	tr, err := c.endpoint(clientAddr(c.cfg.tcp, role, i))
	if err != nil {
		return nil, err
	}
	seeds := make([]string, len(c.nodes))
	for j, n := range c.nodes {
		seeds[j] = n.Addr()
	}
	cl, err := overlay.NewClient(tr, keyBits, c.space, seeds...)
	if err != nil {
		tr.Close()
		return nil, err
	}
	if c.tracer != nil {
		cl.SetTraceEvery(1)
	}
	c.clients = append(c.clients, cl)
	return cl, nil
}

// close stops the nodes (waiting for their async match pushes) and then
// every transport, the clients' included.
func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, tr := range c.trs {
		tr.Close()
	}
}

// splitsMerges sums the core split and merge counters over the nodes.
func (c *cluster) splitsMerges() (splits, merges int) {
	for _, n := range c.nodes {
		ct := n.Server().Counters()
		splits += ct.Splits
		merges += ct.Merges
	}
	return splits, merges
}

// digest fingerprints the layout: split and merge counts plus a hash of each
// node's sorted active groups. Two runs that did the same work print the
// same digest.
func (c *cluster) digest() string {
	splits, merges := c.splitsMerges()
	h := sha256.New()
	groups := 0
	for _, n := range c.nodes {
		var names []string
		for _, g := range n.Server().ActiveGroups() {
			names = append(names, g.String())
		}
		sort.Strings(names)
		groups += len(names)
		fmt.Fprintf(h, "%s=%s;", n.Addr(), strings.Join(names, ","))
	}
	return fmt.Sprintf("splits=%d merges=%d groups=%d layout=%s", splits, merges, groups, hex.EncodeToString(h.Sum(nil))[:16])
}

// check runs the overlay's correctness invariants: every work table
// validates, the active groups tile the key space exactly, the engines hold
// exactly the registered queries, and nothing was dropped.
func (c *cluster) check(registered int) []string {
	var bad []string
	var all []bitkey.Group
	held := 0
	for _, n := range c.nodes {
		if err := n.Server().Validate(); err != nil {
			bad = append(bad, fmt.Sprintf("%s: work table invalid: %v", n.Addr(), err))
		}
		all = append(all, n.Server().ActiveGroups()...)
		held += n.Engine().Len()
		if d := n.MatchDrops() + n.TransferDrops() + n.OrphanDrops(); d != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d match/transfer/orphan drops", n.Addr(), d))
		}
	}
	if err := tiles(all); err != nil {
		bad = append(bad, err.Error())
	}
	if held != registered {
		bad = append(bad, fmt.Sprintf("engines hold %d queries, %d registered", held, registered))
	}
	for _, cl := range c.clients {
		if d := cl.Drops(); d != 0 {
			bad = append(bad, fmt.Sprintf("client dropped %d matches", d))
		}
	}
	return bad
}

// tiles reports whether the groups cover the key space exactly: no group is
// a prefix of another and the sizes 2^(keyBits-depth) sum to 2^keyBits.
func tiles(groups []bitkey.Group) error {
	sort.Slice(groups, func(i, j int) bool { return groups[i].Prefix.Compare(groups[j].Prefix) < 0 })
	var total uint64
	for i, g := range groups {
		if i > 0 && groups[i-1].ContainsGroup(g) {
			return fmt.Errorf("active groups overlap: %v contains %v", groups[i-1], g)
		}
		total += 1 << uint(keyBits-g.Depth())
	}
	if total != 1<<keyBits {
		return fmt.Errorf("active groups cover %d of %d keys", total, uint64(1)<<keyBits)
	}
	return nil
}
