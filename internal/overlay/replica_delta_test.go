package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"clash/internal/bitkey"
	"clash/internal/cq"
	"clash/internal/wirecodec"
)

// pushedVersion returns the origin and version a replica push payload
// carries.
func pushedVersion(t *testing.T, typ string, payload []byte) (string, uint64) {
	t.Helper()
	if typ == TypeReplicateDelta {
		h, err := scanReplicateDelta(payload)
		if err != nil {
			t.Fatalf("delta push: %v", err)
		}
		return string(h.Origin), h.Version
	}
	h, err := scanReplicate(payload)
	if err != nil {
		t.Fatalf("full push: %v", err)
	}
	return string(h.Origin), h.Version
}

// originFullState builds the full replicateMsg origin would push at version
// from its current state.
func originFullState(origin *Node, version uint64) []byte {
	origin.repMu.Lock()
	snaps := origin.server.SnapshotActive()
	origin.mu.Lock()
	msg := origin.fullStateLocked(snaps, spanRef{})
	origin.mu.Unlock()
	origin.repMu.Unlock()
	msg.Version = version
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
// delta log smaller than the full push it rests on. A holder that does not
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
	if log >= payload {
		t.Fatalf("%s: %s's log for %s is %d bytes, not below its %d-byte full push", what, holder.Addr(), origin.Addr(), log, payload)
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
// check's split and its closing push), load checks and holder restarts
// (the holder's replica store wiped) on a replicated in-memory cluster,
// losing one replica push in twelve. After every push a holder stores, its
// decoded replica of the origin must marshal byte for byte to the full
// replicateMsg the origin would build at that version, with a delta log
// below the full push it rests on. A delta may only reach a holder at the
// delta's base version, except the first one after that holder's restart,
// which it refuses.
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
	for _, n := range nodes {
		n := n
		netw.Endpoint(n.Addr()).SetHandler(func(typ string, payload []byte) ([]byte, error) {
			if typ != TypeReplicateKeyGroup && typ != TypeReplicateDelta {
				return n.handle(typ, payload)
			}
			if rng.Intn(12) == 0 {
				return nil, errors.New("push lost")
			}
			origin, version := pushedVersion(t, typ, payload)
			key := [2]string{n.Addr(), origin}
			if typ == TypeReplicateDelta {
				h, _ := scanReplicateDelta(payload)
				n.mu.Lock()
				set := n.replicas[origin]
				atBase := set != nil && set.incarnation == h.Incarnation && set.version == h.Base
				n.mu.Unlock()
				switch {
				case !atBase && wiped[key]:
					refusals++
				case !atBase:
					t.Fatalf("step %d: %s sent %s a delta on version %d, which it does not hold", step, origin, n.Addr(), h.Base)
				}
			}
			delete(wiped, key)
			reply, err := n.handle(typ, payload)
			if err != nil {
				t.Fatalf("step %d: %s push from %s: %v", step, typ, origin, err)
			}
			if checkHeldReplica(t, n, byAddr[origin], version, fmt.Sprintf("step %d, %s", step, typ)) {
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
		default:
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
	t.Logf("%d pushes checked; pushes sent %+v", checked, total)
	if total.DeltaRefused != int64(refusals) {
		t.Errorf("%d deltas refused, want %d (one per restarted holder's first delta)", total.DeltaRefused, refusals)
	}
	if total.Delta < 100 || checked < 200 || refusals == 0 {
		t.Errorf("%d deltas sent, %d pushes checked, %d refused: the sequence no longer exercises the delta path",
			total.Delta, checked, refusals)
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
	f := &deltaFixture{netw: NewMemNetwork(), nodes: make(map[string]*Node)}
	cfg := testConfig()
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

// TestOlderHolderGetsFullPushes gives one holder the behaviour of a peer that
// predates delta pushes: it answers a full push with an empty reply and has
// no handler for TypeReplicateDelta. It must only ever get full pushes, while
// the other holder gets deltas, and nothing is refused.
func TestOlderHolderGetsFullPushes(t *testing.T) {
	f := newDeltaFixture(t)
	holders := f.targets(t)
	old := holders[0]
	calls := make(map[string]int)
	f.netw.Endpoint(old.Addr()).SetHandler(func(typ string, payload []byte) ([]byte, error) {
		calls[typ]++
		switch typ {
		case TypeReplicateDelta:
			return nil, fmt.Errorf("unknown message type %q", typ)
		case TypeReplicateKeyGroup:
			reply, err := old.handle(typ, payload)
			wirecodec.PutBuf(reply)
			return nil, err
		}
		return old.handle(typ, payload)
	})
	f.origin.LoadCheck(time.Now())
	before := f.origin.ReplicaPushes()
	for i := 0; i < 5; i++ {
		f.register(t, fmt.Sprintf("q-%d", i))
	}
	// The other holder's deltas are interleaved with full pushes while the
	// state is small (see TestDeltaLogBoundForcesFullPush).
	if got := pushDiff(before, f.origin.ReplicaPushes()); got.Full+got.Delta != 10 || got.Delta == 0 || got.DeltaRefused != 0 {
		t.Errorf("five registrations sent %+v, want 10 pushes, some of them deltas, none refused", got)
	}
	if calls[TypeReplicateDelta] != 0 || calls[TypeReplicateKeyGroup] != 6 {
		t.Errorf("the older holder got %d deltas and %d full pushes, want 0 and 6",
			calls[TypeReplicateDelta], calls[TypeReplicateKeyGroup])
	}
	f.current(t, old)
	f.current(t, holders[1])
}

// deltaPush encodes a delta from node-9 (testPush's origin) carrying one
// record of query id over region 01, tagged with group 01 at epoch.
func deltaPush(t *testing.T, base, version, epoch uint64, id, sub string) []byte {
	t.Helper()
	rec := replicaDeltaRec{GroupValue: 0b01, GroupBits: 2, Epoch: epoch, Query: replicaRec(t, id, sub)}
	m := replicateDeltaMsg{Origin: "node-9", Incarnation: 3, Base: base, Version: version,
		Records: [][]byte{rec.MarshalWire(nil)}}
	return m.MarshalWire(nil)
}

// applyDelta hands a delta push to n and returns the version n acknowledges.
func applyDelta(t *testing.T, n *Node, payload []byte) replicateAck {
	t.Helper()
	raw, err := n.handleReplicateDelta(payload)
	if err != nil {
		t.Fatalf("handleReplicateDelta: %v", err)
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
// region/ID order and replaces the re-subscribed record; a duplicate, a late
// delta, one tagged with a stale epoch and one for an unknown origin change
// nothing and acknowledge what is held.
func TestDeltaAppliesOnlyOnItsBase(t *testing.T) {
	n := newReplicaHolder(t)
	base := testPush(t, 1)
	if _, err := n.handleReplicate(base.MarshalWire(nil)); err != nil {
		t.Fatal(err)
	}
	d2 := deltaPush(t, 1, 2, 2, "q-0", "client-3")
	if ack := applyDelta(t, n, d2); ack != (replicateAck{Incarnation: 3, Version: 2}) {
		t.Fatalf("delta 1→2 acknowledged %+v", ack)
	}
	if ack := applyDelta(t, n, deltaPush(t, 2, 3, 2, "q-a", "client-9")); ack != (replicateAck{Incarnation: 3, Version: 3}) {
		t.Fatalf("delta 2→3 acknowledged %+v", ack)
	}
	want := testPush(t, 3)
	want.Groups[0].Queries = [][]byte{replicaRec(t, "q-0", "client-3"), replicaRec(t, "q-a", "client-9"), replicaRec(t, "q-b", "")}
	held := recoverReply(t, n, "node-9")
	if !bytes.Equal(held, want.MarshalWire(nil)) {
		var got replicateMsg
		_ = got.UnmarshalWire(held)
		t.Fatalf("merged replica\n got %+v\nwant %+v", got, want)
	}

	unknownGroup := replicaDeltaRec{GroupValue: 0b00, GroupBits: 2, Query: replicaRec(t, "q-z", "client-1")}
	for name, payload := range map[string][]byte{
		"duplicate":   d2,
		"late":        deltaPush(t, 0, 1, 2, "q-z", "client-1"),
		"stale epoch": deltaPush(t, 3, 4, 1, "q-z", "client-1"),
		"unknown group": (&replicateDeltaMsg{Origin: "node-9", Incarnation: 3, Base: 3, Version: 4,
			Records: [][]byte{unknownGroup.MarshalWire(nil)}}).MarshalWire(nil),
	} {
		if ack := applyDelta(t, n, payload); ack != (replicateAck{Incarnation: 3, Version: 3}) {
			t.Errorf("%s delta acknowledged %+v, want version 3", name, ack)
		}
		if got := recoverReply(t, n, "node-9"); !bytes.Equal(got, held) {
			t.Errorf("%s delta changed the stored set", name)
		}
	}
	fresh := newReplicaHolder(t)
	if ack := applyDelta(t, fresh, d2); ack != (replicateAck{}) {
		t.Errorf("a holder with no set acknowledged %+v, want none", ack)
	}
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	if a := testing.AllocsPerRun(50, func() {
		reply, _ := n.handleReplicateDelta(d2)
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
	js, err := (cq.Query{ID: "q-installed", Region: f.region}).Marshal()
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
// at once, so pushes are planned, sent and acknowledged concurrently and
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
	wg.Wait()
	f.register(t, "q-last")
	for _, h := range f.targets(t) {
		f.current(t, h)
	}
	if rp := f.origin.ReplicaPushes(); rp.Delta == 0 || rp.DeltaRefused != 0 {
		t.Errorf("replica pushes %+v: want deltas, none refused", rp)
	}
}
