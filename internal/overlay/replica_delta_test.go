package overlay

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"clash/internal/bitkey"
	"clash/internal/clock"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/wirecodec"
)

// pushHeader returns the header of a replica push payload.
func pushHeader(t *testing.T, payload []byte) replicateHeader {
	t.Helper()
	h, err := scanReplicate(payload)
	if err != nil {
		t.Fatalf("replica push: %v", err)
	}
	return h
}

// originFullState builds the full replicateMsg origin would push at version
// from its current state.
func originFullState(origin *Node, version uint64) []byte {
	origin.repMu.Lock()
	p := &replicaPush{snaps: origin.server.SnapshotActive(nil)}
	origin.mu.Lock()
	msg := replicateMsg{Origin: origin.Addr(), Incarnation: origin.incarnation, Version: version}
	msg.Groups, msg.Loose = origin.fullStateLocked(p)
	origin.mu.Unlock()
	origin.repMu.Unlock()
	return msg.MarshalWire(nil)
}

// heldReplica returns holder's decoded replica of origin, re-encoded, and the
// sizes of its stored payload and delta log; ok is false when holder stores
// nothing for origin at exactly (incarnation, version).
func heldReplica(holder *Node, origin string, incarnation, version uint64) (enc []byte, payload, log int, ok bool) {
	holder.mu.Lock()
	defer holder.mu.Unlock()
	set := holder.replicas[origin]
	if set == nil || set.incarnation != incarnation || set.version != version {
		return nil, 0, 0, false
	}
	msg := set.decode()
	return msg.MarshalWire(nil), len(set.payload), len(set.log), true
}

// checkHeldReplica fails the test unless holder's copy of origin at version
// decodes to exactly what origin would push in full at that version, with a
// delta log smaller than the full push it rests on or, when that push is
// smaller, than minDeltaLog. A holder that does not
// store that version (the push was stale) is not checked.
func checkHeldReplica(t *testing.T, holder, origin *Node, version uint64, what string) bool {
	t.Helper()
	origin.mu.Lock()
	inc := origin.incarnation
	origin.mu.Unlock()
	got, payload, log, ok := heldReplica(holder, origin.Addr(), inc, version)
	if !ok {
		return false
	}
	if log >= max(payload, minDeltaLog) {
		t.Fatalf("%s: %s's log for %s is %d bytes, not below its %d-byte full push or %d", what, holder.Addr(), origin.Addr(), log, payload, minDeltaLog)
	}
	if want := originFullState(origin, version); !bytes.Equal(got, want) {
		var g, w replicateMsg
		_ = g.UnmarshalWire(got)
		_ = w.UnmarshalWire(want)
		t.Fatalf("%s: %s's replica of %s at version %d\n got %+v\nwant %+v", what, holder.Addr(), origin.Addr(), version, g, w)
	}
	return true
}

// randomQuery returns a query over a random region of the 16-bit key space.
func randomQuery(rng *rand.Rand, id string) cq.Query {
	bits := 2 + rng.Intn(8)
	return cq.Query{
		ID:         id,
		Region:     bitkey.NewGroup(bitkey.Key{Value: uint64(rng.Intn(1 << bits)), Bits: bits}),
		Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: float64(rng.Intn(100))}},
	}
}

// TestDeltaReplicaEquivalence runs a seeded random sequence of
// registrations, re-subscriptions from other clients, admin splits and
// merges (which push nothing themselves, like the window between a load
// check's split and its closing push), load checks, successor-change pushes
// and holder restarts (the holder's replica store wiped) on a replicated
// in-memory cluster, losing one replica push in twelve. After every push a
// holder stores, its decoded replica of the origin must marshal byte for
// byte to the full replicateMsg the origin would build at that version, with
// a delta log below the full push it rests on. A delta — a heartbeat
// included — may only reach a holder at the delta's base version, except the
// first one after that holder's restart, which it refuses.
func TestDeltaReplicaEquivalence(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	cfg.InlineMatchPush = true
	nodes := buildOverlay(t, netw, 4, cfg)
	byAddr := make(map[string]*Node)
	for _, n := range nodes {
		byAddr[n.Addr()] = n
	}
	rng := rand.New(rand.NewSource(1))
	step := 0
	checked := 0
	wiped := make(map[[2]string]bool) // (holder, origin) restarted since its last push
	refusals := 0
	heartbeats := make(map[string]int) // stored heartbeats, by the step that sent them
	stepKind := ""
	for _, n := range nodes {
		n := n
		netw.Endpoint(n.Addr()).SetHandler(func(typ string, payload []byte) ([]byte, error) {
			if typ != TypeReplicateKeyGroup {
				return n.handle(typ, payload)
			}
			if rng.Intn(12) == 0 {
				return nil, errors.New("push lost")
			}
			h := pushHeader(t, payload)
			origin := string(h.Origin)
			key := [2]string{n.Addr(), origin}
			if h.Base > 0 {
				n.mu.Lock()
				set := n.replicas[origin]
				atBase := set != nil && set.incarnation == h.Incarnation && set.version == h.Base
				n.mu.Unlock()
				switch {
				case !atBase && wiped[key]:
					refusals++
				case !atBase:
					t.Fatalf("step %d: %s sent %s a delta on version %d, which it does not hold", step, origin, n.Addr(), h.Base)
				case h.Groups == 0:
					heartbeats[stepKind]++
				}
			}
			delete(wiped, key)
			reply, err := n.handle(typ, payload)
			if err != nil {
				t.Fatalf("step %d: push from %s: %v", step, origin, err)
			}
			if checkHeldReplica(t, n, byAddr[origin], h.Version, fmt.Sprintf("step %d, base %d", step, h.Base)) {
				checked++
			}
			return reply, nil
		})
	}
	clients := make([]*Client, 3)
	for i := range clients {
		c, err := NewClient(netw.Endpoint(fmt.Sprintf("client-%d", i)), cfg.KeyBits, cfg.Space, nodes[0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}

	var registered []cq.Query
	for step = 0; step < 400; step++ {
		n := nodes[rng.Intn(len(nodes))]
		stepKind = ""
		switch r := rng.Intn(100); {
		case r < 55 || len(registered) == 0:
			q := randomQuery(rng, fmt.Sprintf("q-%03d", step))
			if _, err := clients[rng.Intn(len(clients))].Register(q); err != nil {
				t.Fatalf("step %d: Register: %v", step, err)
			}
			registered = append(registered, q)
		case r < 80:
			q := registered[rng.Intn(len(registered))]
			if _, err := clients[rng.Intn(len(clients))].Register(q); err != nil {
				t.Fatalf("step %d: re-Register: %v", step, err)
			}
		case r < 88:
			if groups := n.Server().ActiveGroups(); len(groups) > 0 {
				_ = n.ForceSplit(groups[rng.Intn(len(groups))])
			}
		case r < 93:
			for _, e := range n.Server().Entries() {
				if !e.Active {
					_ = n.ForceMerge(e.Group)
					break
				}
			}
		case r < 95:
			n.mu.Lock()
			for origin := range n.replicas {
				wiped[[2]string{n.Addr(), origin}] = true
			}
			n.replicas = make(map[string]*replicaSet)
			n.mu.Unlock()
		case r < 97:
			stepKind = "successor change"
			n.successorsChanged(n.chord.Successors())
		default:
			stepKind = "load check"
			n.LoadCheck(time.Now())
		}
	}
	var total ReplicaPushStats
	for _, n := range nodes {
		rp := n.ReplicaPushes()
		total.Full += rp.Full
		total.Delta += rp.Delta
		total.DeltaRefused += rp.DeltaRefused
	}
	t.Logf("%d pushes checked; pushes sent %+v; heartbeats stored %v", checked, total, heartbeats)
	if total.DeltaRefused != int64(refusals) {
		t.Errorf("%d deltas refused, want %d (one per restarted holder's first delta)", total.DeltaRefused, refusals)
	}
	if total.Delta < 100 || checked < 200 || refusals == 0 {
		t.Errorf("%d deltas sent, %d pushes checked, %d refused: the sequence no longer exercises the delta path",
			total.Delta, checked, refusals)
	}
	if heartbeats["load check"] == 0 || heartbeats["successor change"] == 0 {
		t.Errorf("heartbeats stored by step kind: %v; want load-check and successor-change heartbeats", heartbeats)
	}
}

// deltaFixture is a 3-node replicated in-memory cluster with a client, and
// the node holding the group a test registers its queries in.
type deltaFixture struct {
	netw   *MemNetwork
	nodes  map[string]*Node
	client *Client
	origin *Node
	region bitkey.Group
}

func newDeltaFixture(t *testing.T) *deltaFixture {
	t.Helper()
	return newDeltaFixtureConfig(t, testConfig())
}

func newDeltaFixtureConfig(t *testing.T, cfg Config) *deltaFixture {
	t.Helper()
	f := &deltaFixture{netw: NewMemNetwork(), nodes: make(map[string]*Node)}
	cfg.InlineMatchPush = true
	for _, n := range buildOverlay(t, f.netw, 3, cfg) {
		f.nodes[n.Addr()] = n
		if groups := n.Server().ActiveGroups(); f.origin == nil && len(groups) > 0 {
			f.origin, f.region = n, groups[0]
		}
	}
	if f.origin == nil {
		t.Fatal("no node holds a group")
	}
	c, err := NewClient(f.netw.Endpoint("client-1"), cfg.KeyBits, cfg.Space, f.origin.Addr())
	if err != nil {
		t.Fatal(err)
	}
	f.client = c
	return f
}

// register registers query id over the origin's group.
func (f *deltaFixture) register(t *testing.T, id string) {
	t.Helper()
	if _, err := f.client.Register(cq.Query{ID: id, Region: f.region}); err != nil {
		t.Fatalf("Register %s: %v", id, err)
	}
}

// targets returns the origin's replication targets.
func (f *deltaFixture) targets(t *testing.T) []*Node {
	t.Helper()
	var out []*Node
	for _, addr := range f.origin.replicationTargets() {
		out = append(out, f.nodes[addr])
	}
	if len(out) != 2 {
		t.Fatalf("origin has %d replication targets, want 2", len(out))
	}
	return out
}

// current checks that holder's replica of the origin is the origin's current
// full state at its latest version.
func (f *deltaFixture) current(t *testing.T, holder *Node) {
	t.Helper()
	f.origin.mu.Lock()
	version := f.origin.repVersion
	f.origin.mu.Unlock()
	if !checkHeldReplica(t, holder, f.origin, version, "holder "+holder.Addr()) {
		t.Fatalf("%s does not hold %s's version %d", holder.Addr(), f.origin.Addr(), version)
	}
}

func pushDiff(a, b ReplicaPushStats) ReplicaPushStats {
	return ReplicaPushStats{Full: b.Full - a.Full, Delta: b.Delta - a.Delta, DeltaRefused: b.DeltaRefused - a.DeltaRefused}
}

// TestDeltaRefusedFallsBackToFull empties one holder's replica store, as a
// restart does, between two registrations: the second registration's delta
// is refused there, the same registration falls back to one full push, and
// the holder ends up with the origin's current state.
func TestDeltaRefusedFallsBackToFull(t *testing.T) {
	f := newDeltaFixture(t)
	f.register(t, "q-1")
	holders := f.targets(t)
	restarted := holders[0]
	restarted.mu.Lock()
	restarted.replicas = make(map[string]*replicaSet)
	restarted.mu.Unlock()

	before := f.origin.ReplicaPushes()
	f.register(t, "q-2")
	if got, want := pushDiff(before, f.origin.ReplicaPushes()), (ReplicaPushStats{Full: 1, Delta: 2, DeltaRefused: 1}); got != want {
		t.Fatalf("the registration sent %+v, want %+v", got, want)
	}
	// The fallback stamped a version of its own; the other holder keeps the
	// delta's, the one before.
	f.current(t, restarted)
	f.origin.mu.Lock()
	version := f.origin.repVersion - 1
	f.origin.mu.Unlock()
	if !checkHeldReplica(t, holders[1], f.origin, version, "the other holder") {
		t.Fatalf("the other holder does not hold version %d", version)
	}
	if subs := pushedSubscribers(t, []*Node{restarted}, f.origin, "q-1"); len(subs) != 1 {
		t.Errorf("the fallback push restored q-1 %d times, want once", len(subs))
	}
}

// TestSmallOriginPushesDeltas holds a near-empty origin to delta pushes:
// its full push is about the size of a one-record delta, so without a floor
// under the log bound every other registration would push the full state to
// both holders.
func TestSmallOriginPushesDeltas(t *testing.T) {
	f := newDeltaFixture(t)
	f.register(t, "q-0")
	before := f.origin.ReplicaPushes()
	for i := 1; i <= 10; i++ {
		f.register(t, fmt.Sprintf("q-%d", i))
	}
	if got, want := pushDiff(before, f.origin.ReplicaPushes()), (ReplicaPushStats{Delta: 20}); got != want {
		t.Errorf("ten registrations sent %+v, want %+v", got, want)
	}
}

// TestOlderHolderGetsFullPushes gives one holder the behaviour of a peer
// that predates delta pushes: one that answers a push with an empty reply,
// and one that acknowledges (incarnation, version) without the Delta field —
// a peer that ignores Base and would store a delta as its whole set. Either
// must only ever get full (Base 0) pushes, while the other holder gets
// deltas, and nothing is refused.
func TestOlderHolderGetsFullPushes(t *testing.T) {
	for name, reply := range map[string]func(ack []byte) []byte{
		"empty ack": func([]byte) []byte { return nil },
		"ack without Delta": func(raw []byte) []byte {
			var ack replicateAck
			if err := ack.UnmarshalWire(raw); err != nil {
				t.Fatal(err)
			}
			return wirecodec.AppendUvarint(wirecodec.AppendUvarint(nil, ack.Incarnation), ack.Version)
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := newDeltaFixture(t)
			holders := f.targets(t)
			old := holders[0]
			full, delta := 0, 0
			f.netw.Endpoint(old.Addr()).SetHandler(func(typ string, payload []byte) ([]byte, error) {
				if typ != TypeReplicateKeyGroup {
					return old.handle(typ, payload)
				}
				if pushHeader(t, payload).Base > 0 {
					delta++
				} else {
					full++
				}
				raw, err := old.handle(typ, payload)
				defer wirecodec.PutBuf(raw)
				return reply(raw), err
			})
			// The holder acknowledged the fixture's pushes before it turned
			// old; the first push after that teaches the origin otherwise.
			f.origin.LoadCheck(time.Now())
			full, delta = 0, 0
			before := f.origin.ReplicaPushes()
			for i := 0; i < 5; i++ {
				f.register(t, fmt.Sprintf("q-%d", i))
			}
			f.origin.LoadCheck(time.Now())
			// The other holder's deltas are interleaved with full pushes
			// while the state is small (see TestDeltaLogBoundForcesFullPush).
			if got := pushDiff(before, f.origin.ReplicaPushes()); got.Full+got.Delta != 12 || got.Delta == 0 || got.DeltaRefused != 0 {
				t.Errorf("five registrations and a load check sent %+v, want 12 pushes, some of them deltas, none refused", got)
			}
			if delta != 0 || full != 6 {
				t.Errorf("the older holder got %d deltas and %d full pushes, want 0 and 6", delta, full)
			}
			f.current(t, old)
			f.current(t, holders[1])
		})
	}
}

// TestRetiredDeltaTypeRefused sends a node a raw frame of the retired
// 0x1C type, the separate delta push of earlier versions, carrying a delta
// in that older layout on top of the set the node stores: the node must
// answer with an error frame and keep the stored set unchanged.
func TestRetiredDeltaTypeRefused(t *testing.T) {
	tr, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(tr, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	base := testPush(t, 1)
	if _, err := n.handleReplicate(base.MarshalWire(nil)); err != nil {
		t.Fatal(err)
	}
	held := recoverReply(t, n, "node-9")

	// Origin, incarnation, base, version, trace context, then one record:
	// group 01, epoch 2, a query record.
	rec := wirecodec.AppendInt(nil, 2)
	rec = wirecodec.AppendUvarint(rec, 0b01)
	rec = wirecodec.AppendUvarint(rec, 2)
	rec = wirecodec.AppendBytes(rec, replicaRec(t, "q-z", "client-1"))
	old := wirecodec.AppendString(nil, "node-9")
	for _, v := range []uint64{3, 1, 2, 0, 0, 0, 1} {
		old = wirecodec.AppendUvarint(old, v)
	}
	old = wirecodec.AppendBytes(old, rec)
	frame, err := appendFrame(nil, 7, 0x1C, old)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	reply, err := readFrameInto(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	if reply.seq != 7 || reply.typ != typeReplyErr {
		t.Errorf("reply = (%d, %#x, %q), want an error reply to sequence 7", reply.seq, reply.typ, reply.payload)
	}
	if got := recoverReply(t, n, "node-9"); !bytes.Equal(got, held) {
		t.Error("a retired 0x1C frame changed the stored set")
	}
}

// TestHeartbeatKeepsReplicasAlive runs load checks with nothing changed for
// more than replicaTTLPeriods periods of a stepped clock: each sends every
// holder a heartbeat and no full push, and the heartbeats alone keep the
// holders' sets through gcReplicas. When the origin then crashes, promotion
// restores exactly its full state at the last version.
func TestHeartbeatKeepsReplicasAlive(t *testing.T) {
	clk := &stepClock{now: time.Unix(1_000_000, 0)}
	cfg := testConfig()
	cfg.Clock = clk
	f := newDeltaFixtureConfig(t, cfg)
	f.register(t, "q-1")
	f.register(t, "q-2")
	holders := f.targets(t)
	for period := 0; period <= replicaTTLPeriods+2; period++ {
		clk.step(cfg.LoadCheckInterval)
		before := f.origin.ReplicaPushes()
		f.origin.LoadCheck(clk.Now())
		if got := pushDiff(before, f.origin.ReplicaPushes()); got != (ReplicaPushStats{Delta: int64(len(holders))}) {
			t.Fatalf("period %d: a load check with nothing changed sent %+v, want %d deltas", period, got, len(holders))
		}
		for _, h := range holders {
			h.gcReplicas()
			f.current(t, h)
		}
	}

	// Promotion: the origin's state at the last version, exactly.
	f.origin.mu.Lock()
	version := f.origin.repVersion
	f.origin.mu.Unlock()
	var want replicateMsg
	if err := want.UnmarshalWire(originFullState(f.origin, version)); err != nil {
		t.Fatal(err)
	}
	f.netw.SetDown(f.origin.Addr(), true)
	restored := func() bool {
		for _, g := range want.Groups {
			if promotedGroup(holders, g) == nil {
				return false
			}
		}
		return true
	}
	for i := 0; i < 30 && !restored(); i++ {
		clk.step(cfg.LoadCheckInterval)
		converge(holders, 2)
		for _, h := range holders {
			h.recoverFromReplicas()
		}
	}
	for _, g := range want.Groups {
		got := promotedGroup(holders, g)
		if got == nil {
			t.Fatalf("group %d/%d was not promoted", g.GroupValue, g.GroupBits)
		}
		g.Epoch++ // the promoting node takes ownership at the next epoch (core.Server.RestoreGroup)
		if !bytes.Equal(got.MarshalWire(nil), g.MarshalWire(nil)) {
			t.Errorf("promoted group\n got %+v\nwant %+v", *got, g)
		}
	}
}

// promotedGroup returns the replica record of the active group with g's
// prefix on the first of nodes that serves it, or nil.
func promotedGroup(nodes []*Node, g replicaGroupRec) *replicaGroupRec {
	for _, n := range nodes {
		for _, s := range n.server.SnapshotActive(nil) {
			if s.Group.Prefix.Value == g.GroupValue && s.Group.Prefix.Bits == g.GroupBits {
				n.mu.Lock()
				recs, _ := n.fullStateLocked(&replicaPush{snaps: []core.GroupSnapshot{s}})
				n.mu.Unlock()
				return &recs[0]
			}
		}
	}
	return nil
}

// stepClock is a clock.Clock that moves only when a test steps it.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) step(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *stepClock) NewTicker(d time.Duration) clock.Ticker { return clock.Real().NewTicker(d) }

func (c *stepClock) NewTimer(d time.Duration) clock.Timer { return clock.Real().NewTimer(d) }

// deltaPush encodes a delta from node-9 (testPush's origin) carrying one
// record of query id over region 01, under group 01 at epoch.
func deltaPush(t *testing.T, base, version, epoch uint64, id, sub string) []byte {
	t.Helper()
	m := replicateMsg{Origin: "node-9", Incarnation: 3, Base: base, Version: version,
		Groups: []replicaGroupRec{{GroupValue: 0b01, GroupBits: 2, Parent: "node-8", Epoch: epoch,
			Queries: [][]byte{replicaRec(t, id, sub)}}}}
	return m.MarshalWire(nil)
}

// applyDelta hands a delta push to n and returns the version n acknowledges.
func applyDelta(t *testing.T, n *Node, payload []byte) replicateAck {
	t.Helper()
	raw, err := n.handleReplicate(payload)
	if err != nil {
		t.Fatalf("handleReplicate: %v", err)
	}
	var ack replicateAck
	if err := ack.UnmarshalWire(raw); err != nil {
		t.Fatal(err)
	}
	wirecodec.PutBuf(raw)
	return ack
}

// TestDeltaAppliesOnlyOnItsBase checks the holder side of a delta: it
// applies on top of exactly its base version, merges into the group in
// region/ID order and replaces the re-subscribed record, and a heartbeat
// moves the version alone; a duplicate, a late delta, one under a stale
// epoch, one for an unknown group and one for an unknown origin change
// nothing and acknowledge what is held.
func TestDeltaAppliesOnlyOnItsBase(t *testing.T) {
	n := newReplicaHolder(t)
	base := testPush(t, 1)
	if _, err := n.handleReplicate(base.MarshalWire(nil)); err != nil {
		t.Fatal(err)
	}
	held := func(version uint64) replicateAck {
		return replicateAck{Incarnation: 3, Version: version, Delta: true}
	}
	d2 := deltaPush(t, 1, 2, 2, "q-0", "client-3")
	if ack := applyDelta(t, n, d2); ack != held(2) {
		t.Fatalf("delta 1→2 acknowledged %+v", ack)
	}
	if ack := applyDelta(t, n, deltaPush(t, 2, 3, 2, "q-a", "client-9")); ack != held(3) {
		t.Fatalf("delta 2→3 acknowledged %+v", ack)
	}
	heartbeat := (&replicateMsg{Origin: "node-9", Incarnation: 3, Base: 3, Version: 4}).MarshalWire(nil)
	if ack := applyDelta(t, n, heartbeat); ack != held(4) {
		t.Fatalf("heartbeat 3→4 acknowledged %+v", ack)
	}
	want := testPush(t, 4)
	want.Groups[0].Queries = [][]byte{replicaRec(t, "q-0", "client-3"), replicaRec(t, "q-a", "client-9"), replicaRec(t, "q-b", "")}
	stored := recoverReply(t, n, "node-9")
	if !bytes.Equal(stored, want.MarshalWire(nil)) {
		var got replicateMsg
		_ = got.UnmarshalWire(stored)
		t.Fatalf("merged replica\n got %+v\nwant %+v", got, want)
	}

	unknownGroup := replicateMsg{Origin: "node-9", Incarnation: 3, Base: 4, Version: 5,
		Groups: []replicaGroupRec{{GroupValue: 0b00, GroupBits: 2, Queries: [][]byte{replicaRec(t, "q-z", "client-1")}}}}
	for name, payload := range map[string][]byte{
		"duplicate":     d2,
		"late":          deltaPush(t, 1, 2, 2, "q-z", "client-1"),
		"stale epoch":   deltaPush(t, 4, 5, 1, "q-z", "client-1"),
		"unknown group": unknownGroup.MarshalWire(nil),
	} {
		if ack := applyDelta(t, n, payload); ack != held(4) {
			t.Errorf("%s delta acknowledged %+v, want version 4", name, ack)
		}
		if got := recoverReply(t, n, "node-9"); !bytes.Equal(got, stored) {
			t.Errorf("%s delta changed the stored set", name)
		}
	}
	fresh := newReplicaHolder(t)
	if ack := applyDelta(t, fresh, d2); ack != (replicateAck{Delta: true}) {
		t.Errorf("a holder with no set acknowledged %+v, want none", ack)
	}
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	if a := testing.AllocsPerRun(50, func() {
		reply, _ := n.handleReplicate(d2)
		wirecodec.PutBuf(reply)
	}); a != 0 {
		t.Errorf("a duplicate delta allocates %v times, want 0 (validated in place, nothing stored)", a)
	}
}

// TestDeltaLogBoundForcesFullPush registers queries one by one with no load
// check in between: the origin sends deltas while each holder's log stays
// below the full push it rests on, and switches to a full push when the next
// delta would reach it, after which deltas resume.
func TestDeltaLogBoundForcesFullPush(t *testing.T) {
	f := newDeltaFixture(t)
	holders := f.targets(t)
	var kinds []string
	for i := 0; i < 40; i++ {
		before := f.origin.ReplicaPushes()
		f.register(t, fmt.Sprintf("q-%02d", i))
		switch d := pushDiff(before, f.origin.ReplicaPushes()); d {
		case ReplicaPushStats{Full: 2}:
			kinds = append(kinds, "full")
		case ReplicaPushStats{Delta: 2}:
			kinds = append(kinds, "delta")
		default:
			t.Fatalf("registration %d sent %+v, want two pushes of one kind", i, d)
		}
		for _, h := range holders {
			f.current(t, h)
		}
	}
	t.Logf("pushes: %v", kinds)
	fullAfterDelta := 0
	for i := 1; i < len(kinds); i++ {
		if kinds[i] == "full" && kinds[i-1] == "delta" {
			fullAfterDelta++
		}
	}
	if fullAfterDelta < 2 {
		t.Errorf("the log bound forced %d full pushes between deltas, want at least 2: %v", fullAfterDelta, kinds)
	}
}

// TestInstalledQueriesForceFullPush installs query state on the origin
// outside a registration, as a covered group accept or a promotion into an
// already active group does, without a push: the next registration must push
// the full state, since those queries are in no registration's records.
func TestInstalledQueriesForceFullPush(t *testing.T) {
	f := newDeltaFixture(t)
	f.register(t, "q-1")
	js, err := (cq.Query{ID: "q-installed", Region: f.region}).AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	f.origin.installQueries([]queryState{{Query: js, Subscriber: "client-2"}})
	before := f.origin.ReplicaPushes()
	f.register(t, "q-2")
	if got := pushDiff(before, f.origin.ReplicaPushes()); got != (ReplicaPushStats{Full: 2}) {
		t.Fatalf("the registration after an install sent %+v, want two full pushes", got)
	}
	for _, h := range f.targets(t) {
		f.current(t, h)
	}
}

// TestConcurrentRegistrationsConverge registers queries from several clients
// at once while the origin runs load checks, so registration deltas and
// load-check heartbeats are planned, sent and acknowledged concurrently and
// race one another to the holders. After one more registration once they
// are done, both holders must hold the origin's current state at its latest
// version, and every push must have been sent to a holder at its base.
func TestConcurrentRegistrationsConverge(t *testing.T) {
	f := newDeltaFixture(t)
	const clients, each = 6, 15
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli, err := NewClient(f.netw.Endpoint(fmt.Sprintf("client-c%d", c)), f.origin.cfg.KeyBits, f.origin.cfg.Space, f.origin.Addr())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int, cli *Client) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q := cq.Query{ID: fmt.Sprintf("q-%d-%02d", c, i), Region: f.region}
				if _, err := cli.Register(q); err != nil {
					t.Errorf("Register %s: %v", q.ID, err)
					return
				}
			}
		}(c, cli)
	}
	done := make(chan struct{})
	checks := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				checks <- n
				return
			default:
			}
			f.origin.LoadCheck(time.Now())
			n++
		}
	}()
	wg.Wait()
	close(done)
	t.Logf("%d load checks ran beside the registrations", <-checks)
	f.register(t, "q-last")
	for _, h := range f.targets(t) {
		f.current(t, h)
	}
	if rp := f.origin.ReplicaPushes(); rp.Delta == 0 || rp.DeltaRefused != 0 {
		t.Errorf("replica pushes %+v: want deltas, none refused", rp)
	}
}
