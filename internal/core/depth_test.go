package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"clash/internal/bitkey"
	"clash/internal/chord"
)

// testCluster wires a set of core.Servers to a consistent-hash ring the way
// the simulator and the live overlay do: every key group lives on the server
// whose ring ID succeeds its virtual key's hash, splits are driven through
// the ring, and probes emulate a client's ACCEPT_OBJECT round trip.
type testCluster struct {
	t       *testing.T
	bits    int
	space   chord.Space
	ring    []ringMember // sorted by id
	servers map[ServerID]*Server
}

type ringMember struct {
	id     chord.ID
	server ServerID
}

func newTestCluster(t *testing.T, nServers, bits, bootstrapDepth int) *testCluster {
	t.Helper()
	c := &testCluster{
		t:       t,
		bits:    bits,
		space:   chord.DefaultSpace(),
		servers: make(map[ServerID]*Server, nServers),
	}
	for i := 0; i < nServers; i++ {
		id := ServerID(fmt.Sprintf("server-%d", i))
		c.ring = append(c.ring, ringMember{id: c.space.HashString(string(id)), server: id})
		s, err := NewServer(id, bits)
		if err != nil {
			t.Fatal(err)
		}
		c.servers[id] = s
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].id < c.ring[j].id })
	// Bootstrap: every depth-bootstrapDepth group is rooted on the server its
	// virtual key maps to, so the whole key space is covered.
	for v := uint64(0); v < 1<<uint(bootstrapDepth); v++ {
		prefix := bitkey.MustNew(v, bootstrapDepth)
		g := bitkey.NewGroup(prefix)
		owner := c.mapGroup(g)
		if err := c.servers[owner].Bootstrap(g); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// mapGroup resolves the server responsible for a group's virtual key.
func (c *testCluster) mapGroup(g bitkey.Group) ServerID {
	vk, err := g.VirtualKey(c.bits)
	if err != nil {
		c.t.Fatal(err)
	}
	id, _ := c.mapFunc(vk)
	return id
}

// mapFunc is the DHT's Map(): the first ring member at or after the virtual
// key's hash, wrapping past the top of the space. It has the MapFunc
// signature ExecuteSplit takes.
func (c *testCluster) mapFunc(vkey bitkey.Key) (ServerID, error) {
	h := c.space.HashBytes(vkey.Bytes())
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].id >= h })
	return c.ring[i%len(c.ring)].server, nil
}

// split splits the given group on its current owner and delivers the
// ACCEPT_KEYGROUP transfer.
func (c *testCluster) split(owner ServerID, g bitkey.Group) {
	c.t.Helper()
	res, err := c.servers[owner].ExecuteSplit(g, c.mapFunc)
	if err != nil {
		c.t.Fatalf("split %v on %s: %v", g, owner, err)
	}
	tr := res.Transfer
	if err := c.servers[tr.To].HandleAcceptKeyGroup(tr.Group, tr.Parent); err != nil {
		c.t.Fatalf("deliver %v to %s: %v", tr.Group, tr.To, err)
	}
}

// ownerOf returns the server that actively manages key k, by asking everyone
// (test oracle).
func (c *testCluster) ownerOf(k bitkey.Key) (ServerID, bitkey.Group) {
	c.t.Helper()
	var (
		found ServerID
		group bitkey.Group
		count int
	)
	for id, s := range c.servers {
		if g, ok := s.ManagesKey(k); ok {
			found, group = id, g
			count++
		}
	}
	if count != 1 {
		c.t.Fatalf("key %v managed by %d servers, want exactly 1", k, count)
	}
	return found, group
}

// probe emulates the client ACCEPT_OBJECT round trip at a given depth: shape
// the key, map the virtual key through the DHT and ask that server.
func (c *testCluster) probe(k bitkey.Key) Probe {
	return func(depth int) (AcceptObjectResult, error) {
		p, err := k.Prefix(depth)
		if err != nil {
			return AcceptObjectResult{}, err
		}
		owner := c.mapGroup(bitkey.NewGroup(p))
		return c.servers[owner].HandleAcceptObject(k, depth)
	}
}

// randomSplits drives the cluster through n random splits of currently
// active groups, mimicking hotspot-driven subdivision.
func (c *testCluster) randomSplits(rng *rand.Rand, n int) {
	type activeGroup struct {
		owner ServerID
		group bitkey.Group
	}
	for i := 0; i < n; i++ {
		var candidates []activeGroup
		for id, s := range c.servers {
			for _, g := range s.ActiveGroups() {
				if g.Depth() < c.bits {
					candidates = append(candidates, activeGroup{owner: id, group: g})
				}
			}
		}
		if len(candidates) == 0 {
			return
		}
		// Deterministic order before random pick (map iteration is random).
		sortActive(candidates)
		pick := candidates[rng.Intn(len(candidates))]
		c.split(pick.owner, pick.group)
	}
}

func sortActive[T any](s []T) {
	// Sorting happens on the string form via fmt; small n, test-only helper.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && fmt.Sprint(s[j]) < fmt.Sprint(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestResolveDepthAcrossCluster(t *testing.T) {
	const (
		bits           = 16
		bootstrapDepth = 4
	)
	c := newTestCluster(t, 32, bits, bootstrapDepth)
	rng := rand.New(rand.NewSource(42))
	c.randomSplits(rng, 60)

	maxProbes := int(math.Ceil(math.Log2(bits))) + 2
	totalProbes := 0
	const nKeys = 400
	for i := 0; i < nKeys; i++ {
		k := bitkey.MustNew(rng.Uint64()&(1<<bits-1), bits)
		_, wantGroup := c.ownerOf(k)
		res, err := ResolveDepth(bits, 0, c.probe(k))
		if err != nil {
			t.Fatalf("resolve %v: %v", k, err)
		}
		if !res.Group.Equal(wantGroup) || res.Depth != wantGroup.Depth() {
			t.Fatalf("resolved %v depth %d, want %v depth %d", res.Group, res.Depth, wantGroup, wantGroup.Depth())
		}
		if res.Probes > maxProbes {
			t.Fatalf("key %v took %d probes, want ≤ %d", k, res.Probes, maxProbes)
		}
		totalProbes += res.Probes
	}
	// Paper §5: clients usually converge much faster than log(N) because dmin
	// jumps the lower bound. Check the average is strictly below the binary
	// search worst case.
	avg := float64(totalProbes) / nKeys
	if avg >= float64(maxProbes) {
		t.Errorf("average probes %.2f not better than worst case %d", avg, maxProbes)
	}
}

func TestDepthSearchConvergence(t *testing.T) {
	// With a single root at depth 1 and a chain of splits along one branch,
	// the binary search must find deep groups quickly regardless of the
	// initial guess.
	const bits = 24
	c := newTestCluster(t, 16, bits, 1)
	// Split the 1* branch repeatedly so depths range from 1 to 12.
	cur := bitkey.MustParseGroup("1*")
	for cur.Depth() < 12 {
		owner := ServerID("")
		for id, s := range c.servers {
			for _, g := range s.ActiveGroups() {
				if g.Equal(cur) {
					owner = id
				}
			}
		}
		if owner == NoServer {
			t.Fatalf("no owner for %v", cur)
		}
		c.split(owner, cur)
		left, _, err := cur.Split()
		if err != nil {
			t.Fatal(err)
		}
		cur = left
	}

	deepKey := bitkey.MustNew(1<<23, bits) // "1000...0": depth-12 group
	shallowKey := bitkey.MustNew(0, bits)  // "0000...0": depth-1 group
	for _, guess := range []int{0, 1, 12, 24} {
		res, err := ResolveDepth(bits, guess, c.probe(deepKey))
		if err != nil {
			t.Fatalf("guess %d: %v", guess, err)
		}
		if res.Depth != 12 {
			t.Errorf("guess %d: resolved depth %d, want 12", guess, res.Depth)
		}
		res, err = ResolveDepth(bits, guess, c.probe(shallowKey))
		if err != nil {
			t.Fatalf("guess %d: %v", guess, err)
		}
		if res.Depth != 1 {
			t.Errorf("guess %d: resolved depth %d for shallow key, want 1", guess, res.Depth)
		}
	}
}

func TestResolveDepthErrors(t *testing.T) {
	if _, err := ResolveDepth(24, 0, nil); err == nil {
		t.Error("nil probe accepted, want error")
	}
	if _, err := ResolveDepth(0, 0, func(int) (AcceptObjectResult, error) {
		return AcceptObjectResult{}, nil
	}); err == nil {
		t.Error("zero key length accepted, want error")
	}
	probeErr := errors.New("network down")
	if _, err := ResolveDepth(8, 0, func(int) (AcceptObjectResult, error) {
		return AcceptObjectResult{}, probeErr
	}); !errors.Is(err, probeErr) {
		t.Errorf("probe error not propagated: %v", err)
	}
	// A probe that always reports dmin = 0 (empty overlay) must terminate
	// with ErrDepthNotFound rather than loop forever.
	_, err := ResolveDepth(8, 0, func(d int) (AcceptObjectResult, error) {
		return AcceptObjectResult{Status: StatusIncorrectDepth, DMin: 0}, nil
	})
	if !errors.Is(err, ErrDepthNotFound) {
		t.Errorf("search on empty overlay err = %v, want ErrDepthNotFound", err)
	}
	// An unexpected reply status is an error, not a retry.
	_, err = ResolveDepth(8, 4, func(int) (AcceptObjectResult, error) {
		return AcceptObjectResult{}, nil
	})
	if !errors.Is(err, ErrDepthNotFound) {
		t.Errorf("zero status err = %v, want ErrDepthNotFound", err)
	}
}
