package overlay

import (
	"bytes"
	"testing"

	"clash/internal/bitkey"
	"clash/internal/cq"
	"clash/internal/wirecodec"
)

// replicaRec encodes one query as a queryState record.
func replicaRec(t *testing.T, id, sub string) []byte {
	t.Helper()
	q := cq.Query{ID: id, Region: bitkey.MustParseGroup("01")}
	data, err := q.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	return (&queryState{Query: data, Subscriber: sub}).MarshalWire(nil)
}

// newReplicaHolder is a lone node that tests hand replicate pushes to
// directly.
func newReplicaHolder(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(NewMemNetwork().Endpoint("node-0"), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// recoverReply asks n for the replica set it holds for origin.
func recoverReply(t *testing.T, n *Node, origin string) []byte {
	t.Helper()
	raw, err := n.handleRecoverKeyGroups((&recoverMsg{Origin: origin}).MarshalWire(nil))
	if err != nil {
		t.Fatalf("handleRecoverKeyGroups: %v", err)
	}
	return bytes.Clone(raw)
}

func testPush(t *testing.T, version uint64) replicateMsg {
	return replicateMsg{
		Origin:      "node-9",
		Incarnation: 3,
		Version:     version,
		Groups: []replicaGroupRec{
			{GroupValue: 0b01, GroupBits: 2, Parent: "node-8", Epoch: 2,
				Queries: [][]byte{replicaRec(t, "q-a", "client-1"), replicaRec(t, "q-b", "")}},
			{GroupValue: 0b1, GroupBits: 1, IsRoot: true, Epoch: 1,
				Queries: [][]byte{replicaRec(t, "q-c", "client-2")}},
		},
		Loose: [][]byte{replicaRec(t, "q-d", "client-1")},
	}
}

// TestReplicateRejectsMalformedRecords pushes replicas whose outer framing is
// intact but whose inner group or query records are cut short: each must be
// refused at receipt, and the set stored before must survive unchanged.
func TestReplicateRejectsMalformedRecords(t *testing.T) {
	n := newReplicaHolder(t)
	good := testPush(t, 1)
	if _, err := n.handleReplicate(good.MarshalWire(nil)); err != nil {
		t.Fatalf("good push: %v", err)
	}
	want := recoverReply(t, n, good.Origin)

	// encode writes a version-2 push whose group section holds the given
	// raw group records.
	encode := func(groups ...[]byte) []byte {
		b := wirecodec.AppendString(nil, good.Origin)
		b = wirecodec.AppendUvarint(b, good.Incarnation)
		b = wirecodec.AppendUvarint(b, 2)
		b = wirecodec.AppendInt(b, len(groups))
		for _, g := range groups {
			b = wirecodec.AppendBytes(b, g)
		}
		return wirecodec.AppendInt(b, 0) // no loose records
	}
	group := good.Groups[0].MarshalWire(nil)
	// A group claiming one more query record than it carries.
	extra := good.Groups[0]
	extra.Queries = extra.Queries[:1]
	short := extra.MarshalWire(nil)
	short[len(short)-len(extra.Queries[0])-2]++ // the query count, before the one record's length prefix
	// A push truncated inside its loose section.
	looseCut := good.MarshalWire(nil)
	looseCut = looseCut[:len(looseCut)-5]

	cases := map[string][]byte{
		"group record cut inside its header": encode(group[:3]),
		"query record cut short":             encode(group[:len(group)-1]),
		"group missing a query record":       encode(short),
		"empty group record":                 encode(nil),
		"loose record cut short":             looseCut,
	}
	for name, payload := range cases {
		if _, err := scanReplicate(payload); err == nil {
			t.Errorf("%s: scanReplicate accepted it", name)
		}
		if _, err := n.handleReplicate(payload); err == nil {
			t.Errorf("%s: handleReplicate accepted it", name)
		}
		if got := recoverReply(t, n, good.Origin); !bytes.Equal(got, want) {
			t.Fatalf("%s: the stored replica set changed", name)
		}
	}
}

// TestStaleReplicaPushNotStored checks that a push older than the stored one
// is dropped without being stored or copied, while a newer one is stored as
// one copy of its payload.
func TestStaleReplicaPushNotStored(t *testing.T) {
	n := newReplicaHolder(t)
	fresh := testPush(t, 5)
	if _, err := n.handleReplicate(fresh.MarshalWire(nil)); err != nil {
		t.Fatal(err)
	}
	want := recoverReply(t, n, fresh.Origin)
	stale := testPush(t, 4)
	stale.Groups = stale.Groups[:1]
	payload := stale.MarshalWire(nil)
	if _, err := n.handleReplicate(payload); err != nil {
		t.Fatalf("stale push: %v", err)
	}
	if got := recoverReply(t, n, fresh.Origin); !bytes.Equal(got, want) {
		t.Fatal("a stale push replaced the stored set")
	}
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	// The reply is a pooled buffer the transport recycles once it is framed.
	handle := func(payload []byte) {
		reply, _ := n.handleReplicate(payload)
		wirecodec.PutBuf(reply)
	}
	if a := testing.AllocsPerRun(50, func() { handle(payload) }); a != 0 {
		t.Errorf("a stale push allocates %v times, want 0 (no clone)", a)
	}
	newer := fresh.MarshalWire(nil)
	version := uint64(5)
	if a := testing.AllocsPerRun(50, func() {
		version++
		m := fresh
		m.Version = version
		newer = m.MarshalWire(newer[:0])
		handle(newer)
	}); a != 1 {
		t.Errorf("a newer push from a known origin allocates %v times, want 1 (its clone)", a)
	}
}

// TestReplicaCountsReadPushedGroups checks the status counts against the
// pushes held, without decoding them.
func TestReplicaCountsReadPushedGroups(t *testing.T) {
	n := newReplicaHolder(t)
	a := testPush(t, 1)
	b := testPush(t, 1)
	b.Origin = "node-7"
	b.Groups = append(b.Groups, replicaGroupRec{GroupValue: 0b00, GroupBits: 2, Epoch: 1})
	empty := replicateMsg{Origin: "node-6", Incarnation: 1, Version: 1}
	for _, m := range []replicateMsg{a, b, empty} {
		if _, err := n.handleReplicate(m.MarshalWire(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if origins, groups := n.replicaCounts(); origins != 3 || groups != 5 {
		t.Errorf("replicaCounts = (%d, %d), want (3, 5)", origins, groups)
	}
}

// pushedSubscribers returns the subscriber each replica holder's stored copy
// of origin's push names for query id.
func pushedSubscribers(t *testing.T, nodes []*Node, origin *Node, id string) []string {
	t.Helper()
	var out []string
	for _, n := range nodes {
		n.mu.Lock()
		set, ok := n.replicas[origin.Addr()]
		var msg replicateMsg
		if ok {
			msg = set.decode()
		}
		n.mu.Unlock()
		for _, g := range msg.Groups {
			for _, rec := range g.Queries {
				var st queryState
				if err := st.UnmarshalWire(rec); err != nil {
					t.Fatal(err)
				}
				if q, err := cq.UnmarshalQuery(st.Query); err == nil && q.ID == id {
					out = append(out, st.Subscriber)
				}
			}
		}
	}
	return out
}

// TestReregisterNewSubscriberChangesPushedRecord registers a query, then
// registers it again from a second client: the holder keeps its query, but
// the re-registration itself must push a record naming the new subscriber,
// so a holder crash right after it restores notifications to client-2.
func TestReregisterNewSubscriberChangesPushedRecord(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	nodes := buildOverlay(t, netw, 3, cfg)
	client := func(addr string) *Client {
		c, err := NewClient(netw.Endpoint(addr), cfg.KeyBits, cfg.Space, nodes[0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	q := cq.Query{ID: "q-moving-sub", Region: bitkey.MustParseGroup("0110"),
		Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}}}
	ik, err := q.IdentifierKey(cfg.KeyBits)
	if err != nil {
		t.Fatal(err)
	}
	var holder *Node
	for _, n := range nodes {
		if _, ok := n.Server().ManagesKey(ik); ok {
			holder = n
		}
	}
	if holder == nil {
		t.Fatalf("no node manages %v", ik)
	}

	if _, err := client("client-1").Register(q); err != nil {
		t.Fatal(err)
	}
	subs := pushedSubscribers(t, nodes, holder, q.ID)
	if len(subs) == 0 {
		t.Fatal("the registration's push reached no replica holder")
	}
	for _, s := range subs {
		if s != "client-1" {
			t.Fatalf("pushed subscribers %v, want client-1", subs)
		}
	}

	if _, err := client("client-2").Register(q); err != nil {
		t.Fatal(err)
	}
	subs = pushedSubscribers(t, nodes, holder, q.ID)
	if len(subs) == 0 {
		t.Fatal("the re-registration's push reached no replica holder")
	}
	for _, s := range subs {
		if s != "client-2" {
			t.Fatalf("after re-registering from client-2, pushed subscribers %v", subs)
		}
	}
	holder.mu.Lock()
	sub := holder.queries[q.ID].subscriber
	holder.mu.Unlock()
	if sub != "client-2" {
		t.Errorf("holder delivers matches to %q, want client-2", sub)
	}
}
