package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"clash/internal/bitkey"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/load"
	"clash/internal/wirecodec"
)

// publishFixture is a warmed 3-node in-memory overlay with inline match push
// and one registered continuous query over region 001*, plus one key that
// region covers and one no region covers.
type publishFixture struct {
	nodes     []*Node
	client    *Client
	covered   bitkey.Key
	uncovered bitkey.Key
}

func newPublishFixture(t testing.TB) *publishFixture {
	t.Helper()
	return newPublishFixturePush(t, true)
}

// newPublishFixturePush is newPublishFixture with match pushes inline or,
// when inline is false, handed to the nodes' push workers.
func newPublishFixturePush(t testing.TB, inline bool) *publishFixture {
	t.Helper()
	netw := NewMemNetwork()
	cfg := testConfig()
	cfg.InlineMatchPush = inline
	nodes := buildOverlay(t, netw, 3, cfg)
	client, err := NewClient(netw.Endpoint("client-1"), cfg.KeyBits, nodes[0].cfg.Space, nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	q := cq.Query{
		ID:         "q-fast",
		Region:     bitkey.MustParseGroup("001"),
		Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
	}
	if _, err := client.Register(q); err != nil {
		t.Fatalf("Register: %v", err)
	}
	return &publishFixture{
		nodes:     nodes,
		client:    client,
		covered:   bitkey.Key{Value: 0b001<<13 | 0x0123, Bits: cfg.KeyBits},
		uncovered: bitkey.Key{Value: 0b110<<13 | 0x0123, Bits: cfg.KeyBits},
	}
}

// TestPublishAllocs caps the allocations of one cache-hit Publish on the
// in-memory fabric, counted end to end: client encode, both frame round
// trips, the node's decode, accept, meter and match, and the reply decode.
// The key lies under the registered query's region and its predicate fails,
// so the engine runs but pushes nothing.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	f := newPublishFixture(t)
	attrs := map[string]float64{"speed": 10}
	publish := func() {
		res, err := f.client.Publish(f.covered, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes != 1 || len(res.Matches) != 0 {
			t.Fatalf("probes %d, matches %v; want a cache hit and no match", res.Probes, res.Matches)
		}
	}
	for i := 0; i < 100; i++ {
		publish() // learn the route, grow the meter map, warm the pools
	}
	// Measured 0 with go1.24, the toolchain CI builds with: the client
	// recycles the pooled reply once decoded and returns the PublishResult
	// by value, and the node matches the attribute section in place. A reply
	// the client kept would cost 1, a result on the heap 1, an attribute map
	// decoded on the node 2 or 3, a group label formatted for the load meter
	// 2.
	const ceiling = 0
	if allocs := testing.AllocsPerRun(500, publish); allocs > ceiling {
		t.Errorf("allocations per Publish = %v, want <= %d", allocs, ceiling)
	}
}

// TestMatchedPublishAllocs caps the allocations of one cache-hit Publish
// whose packet matches the registered query, counted end to end: everything
// TestPublishAllocs counts, plus the node's match, the inline push's encode
// and frame round trip, the subscriber's decode and the Match the test reads
// off the subscriber's channel. What is left is what the two applications
// keep: the result's Matches slice and ID string, and the Match's query ID
// and its one copy of attribute section and payload.
func TestMatchedPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	f := newPublishFixture(t)
	attrs := map[string]float64{"speed": 80}
	payload := []byte("evt")
	publish := func() {
		res, err := f.client.Publish(f.covered, attrs, payload)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes != 1 || len(res.Matches) != 1 {
			t.Fatalf("probes %d, matches %v; want a cache hit and one match", res.Probes, res.Matches)
		}
		select {
		case m := <-f.client.Matches():
			if m.QueryID != "q-fast" || string(m.Payload) != "evt" {
				t.Fatalf("match %q payload %q, want q-fast and \"evt\"", m.QueryID, m.Payload)
			}
		default:
			t.Fatal("no match delivered")
		}
	}
	for i := 0; i < 100; i++ {
		publish()
	}
	// Measured 4 with go1.24, the toolchain CI builds with. The match list
	// built on the heap, the push planned into a heap slice, boxed and
	// delivered through a closure, an escaping RTT cell or the attribute map
	// the subscriber used to build each cost 1 or more.
	const ceiling = 4
	if allocs := testing.AllocsPerRun(500, publish); allocs > ceiling {
		t.Errorf("allocations per matched Publish = %v, want <= %d", allocs, ceiling)
	}
}

// TestAsyncMatchedPublishAllocs is TestMatchedPublishAllocs with the match
// pushed asynchronously, as a live node pushes it: the node hands the push
// to a parked worker instead of spawning a goroutine, so the count is the
// inline one.
func TestAsyncMatchedPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	f := newPublishFixturePush(t, false)
	attrs := map[string]float64{"speed": 80}
	payload := []byte("evt")
	publish := func() {
		res, err := f.client.Publish(f.covered, attrs, payload)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes != 1 || len(res.Matches) != 1 {
			t.Fatalf("probes %d, matches %v; want a cache hit and one match", res.Probes, res.Matches)
		}
		if m := <-f.client.Matches(); m.QueryID != "q-fast" || string(m.Payload) != "evt" {
			t.Fatalf("match %q payload %q, want q-fast and \"evt\"", m.QueryID, m.Payload)
		}
	}
	for i := 0; i < 100; i++ {
		publish()
	}
	// Measured 4 with go1.24, as on the inline path. A goroutine and
	// closure per push cost 1 or 2 more.
	const ceiling = 4
	if allocs := testing.AllocsPerRun(500, publish); allocs > ceiling {
		t.Errorf("allocations per async matched Publish = %v, want <= %d", allocs, ceiling)
	}
}

// TestPublishBatchAllocs caps the allocations per object of a 64-object
// PublishBatch on the warmed in-memory fixture, counted end to end: the
// client's partition, encode and reply decode, and each node's ACCEPT_BATCH
// handler. The keys spread over the key space, so every node gets a frame;
// none matches the registered query.
func TestPublishBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	f := newPublishFixture(t)
	attrs := map[string]float64{"speed": 10}
	items := make([]BatchItem, 64)
	for i := range items {
		items[i] = BatchItem{Key: bitkey.Key{Value: uint64(i) << 10, Bits: 16}, Attrs: attrs}
	}
	publish := func() {
		_, errs := f.client.PublishBatch(items)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		publish() // learn the routes, warm the pools
	}
	perObject := testing.AllocsPerRun(100, publish) / float64(len(items))
	t.Logf("allocations per batched object: %.3f", perObject)
	// Measured 18 per batch (0.281 per object) with go1.24, the toolchain CI
	// builds with, all on the client: its result slices, its per-server
	// partition and each frame's request and reply slices. The nodes plan
	// their frames in pooled scratch. With frames planned on the heap and
	// each item's data payload boxed into wireMsg it read 2.09.
	const ceiling = 18.0 / 64
	if perObject > ceiling {
		t.Errorf("allocations per batched object = %.3f, want <= %.3f", perObject, ceiling)
	}
}

// TestPublishResultsOwnTheirMatches holds the reply-ownership rule on the
// in-memory fabric: each Publish decodes its reply and recycles the buffer,
// so the next calls reuse it. Packets matching different sets of queries are
// published and every PublishResult and Match is kept; at the end each must
// still read what its own publish returned.
func TestPublishResultsOwnTheirMatches(t *testing.T) {
	f := newPublishFixture(t)
	// With the fixture's q-fast (speed > 50), a speed of s matches the
	// queries whose threshold lies below it.
	for _, th := range []int{10, 30, 70, 90} {
		q := cq.Query{
			ID:         fmt.Sprintf("q-over-%02d", th),
			Region:     bitkey.MustParseGroup("001"),
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: float64(th)}},
		}
		if _, err := f.client.Register(q); err != nil {
			t.Fatalf("Register %s: %v", q.ID, err)
		}
	}
	want := func(speed int) []string {
		var ids []string
		for _, th := range []int{10, 30} {
			if speed > th {
				ids = append(ids, fmt.Sprintf("q-over-%02d", th))
			}
		}
		if speed > 50 {
			ids = append(ids, "q-fast")
		}
		for _, th := range []int{70, 90} {
			if speed > th {
				ids = append(ids, fmt.Sprintf("q-over-%02d", th))
			}
		}
		slices.Sort(ids)
		return ids
	}
	var (
		results []PublishResult
		matches []Match
		speeds  []int
	)
	for i := 0; i < 400; i++ {
		speed := (i * 37) % 100
		res, err := f.client.Publish(f.covered, map[string]float64{"speed": float64(speed)}, []byte(strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		speeds = append(speeds, speed)
		for len(f.client.Matches()) > 0 {
			matches = append(matches, <-f.client.Matches())
		}
	}
	n := 0
	for i, res := range results {
		ids := want(speeds[i])
		if !slices.Equal(res.Matches, ids) {
			t.Fatalf("publish %d (speed %d): kept result reads matches %v, want %v", i, speeds[i], res.Matches, ids)
		}
		for _, id := range ids {
			// Inline pushes arrive in the reply's order, before Publish returns.
			m := matches[n]
			n++
			if m.QueryID != id || string(m.Payload) != strconv.Itoa(i) || m.Attrs()["speed"] != float64(speeds[i]) {
				t.Fatalf("publish %d: kept match %q payload %q attrs %v, want %q, %d and speed %d", i, m.QueryID, m.Payload, m.Attrs(), id, i, speeds[i])
			}
		}
	}
	if n != len(matches) {
		t.Errorf("%d matches delivered, %d expected", len(matches), n)
	}
}

// TestMatchCarriesPublisherAttrSection follows a packet's attributes from
// publisher to subscriber: the node pushes the publisher's attribute section
// byte for byte, in the order the publisher wrote it, and the subscriber's
// Match.Attrs decodes it to the publisher's map. Each order is published
// once; a push that re-encoded a map would scramble most of them.
func TestMatchCarriesPublisherAttrSection(t *testing.T) {
	f := newPublishFixture(t)
	var pushed [][]byte
	f.client.tr.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		var m matchMsg
		if msgType == TypeMatch && m.UnmarshalWire(payload) == nil {
			pushed = append(pushed, bytes.Clone(m.Attrs))
		}
		return f.client.handle(msgType, payload)
	})
	want := map[string]float64{"speed": 80, "lat": -12.25, "fuel": 0.4}
	for _, order := range [][]string{
		{"speed", "lat", "fuel"}, {"speed", "fuel", "lat"}, {"lat", "speed", "fuel"},
		{"lat", "fuel", "speed"}, {"fuel", "speed", "lat"}, {"fuel", "lat", "speed"},
	} {
		section := wirecodec.AppendInt(nil, len(order))
		for _, name := range order {
			section = wirecodec.AppendString(section, name)
			section = wirecodec.AppendFloat64(section, want[name])
		}
		payload := wirecodec.AppendBytes(slices.Clone(section), []byte("evt"))
		res, err := f.client.deliver(f.covered, core.ObjectData, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Matches, []string{"q-fast"}) {
			t.Fatalf("order %v: matches %v, want [q-fast]", order, res.Matches)
		}
		// Inline match push: the match arrived before deliver returned.
		if got := pushed[len(pushed)-1]; !bytes.Equal(got, section) {
			t.Errorf("order %v: pushed attribute section %x, want the publisher's %x", order, got, section)
		}
		select {
		case m := <-f.client.Matches():
			if !maps.Equal(m.Attrs(), want) || string(m.Payload) != "evt" {
				t.Errorf("order %v: match attrs %v payload %q, want %v and \"evt\"", order, m.Attrs(), m.Payload, want)
			}
		default:
			t.Fatalf("order %v: no match delivered", order)
		}
	}
	if len(pushed) != 6 {
		t.Errorf("%d match pushes, want 6", len(pushed))
	}
}

// TestAttrSectionScanRejects tables the sections a data payload's scan must
// reject: every truncation of a valid section and every count its bytes
// cannot hold. Each is rejected by the scan itself (Reader.AttrSection), by
// dataMsg's decode, which then holds no section to evaluate, and by the node,
// which answers "bad data payload" before matching: the registered query
// (speed > 50) would match the intact section, yet nothing is pushed.
func TestAttrSectionScanRejects(t *testing.T) {
	valid := wirecodec.AppendInt(nil, 2)
	valid = wirecodec.AppendString(valid, "speed")
	valid = wirecodec.AppendFloat64(valid, 80)
	valid = wirecodec.AppendString(valid, "lat")
	valid = wirecodec.AppendFloat64(valid, -12.25)
	cases := map[string][]byte{
		"hostile count":          append(wirecodec.AppendInt(nil, 1000), make([]byte, 20)...),
		"count past the attrs":   append(wirecodec.AppendInt(nil, 3), valid[1:]...),
		"count beyond int32":     wirecodec.AppendUvarint(nil, 1<<40),
		"count varint truncated": {0x80},
		"name past the end":      append(wirecodec.AppendUvarint(wirecodec.AppendInt(nil, 1), 200), make([]byte, 10)...),
	}
	for i := 0; i < len(valid); i++ {
		cases[fmt.Sprintf("cut at %d of %d", i, len(valid))] = valid[:i]
	}
	if sec := wirecodec.NewReader(valid).AttrSection(); !bytes.Equal(sec, valid) {
		t.Fatalf("valid section scanned to %x, want %x", sec, valid)
	}

	f := newPublishFixture(t)
	pushes := 0
	f.client.tr.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		pushes++
		return f.client.handle(msgType, payload)
	})
	for name, section := range cases {
		r := wirecodec.NewReader(section)
		if sec := r.AttrSection(); sec != nil || r.Err() == nil {
			t.Errorf("%s: scan returned %x, %v; want nil and an error", name, sec, r.Err())
		}
		var d dataMsg
		if err := d.UnmarshalWire(section); err == nil || d.AttrSection != nil {
			t.Errorf("%s: dataMsg decode kept section %x, err %v; want none and an error", name, d.AttrSection, err)
		}
		if len(section) == 0 {
			continue // an empty payload is a packet without attributes
		}
		_, err := f.client.deliver(f.covered, core.ObjectData, section)
		var re *RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "bad data payload") {
			t.Errorf("%s: err = %v, want a remote bad data payload error", name, err)
		}
	}
	if pushes != 0 {
		t.Errorf("%d match pushes for rejected sections, want 0", pushes)
	}
	// The intact section matches: the pushes above were possible.
	if _, err := f.client.deliver(f.covered, core.ObjectData, wirecodec.AppendBytes(slices.Clone(valid), nil)); err != nil || pushes != 1 {
		t.Errorf("valid section: err %v, %d pushes; want a match pushed", err, pushes)
	}
}

// TestMalformedDataPayloadRejected pins that a node validates every data
// payload: a malformed one fails with "bad data payload" whether or not a
// continuous-query region covers its key, and a well-formed packet on an
// uncovered key is metered exactly once.
func TestMalformedDataPayloadRejected(t *testing.T) {
	f := newPublishFixture(t)
	hostileCount := wirecodec.AppendInt(nil, 1000)
	hostileCount = append(hostileCount, make([]byte, 20)...)
	full := (&dataMsg{Attrs: map[string]float64{"speed": 80}, Payload: []byte("evt")}).MarshalWire(nil)
	// Cut inside the float: count (1) + name ("speed", 6 bytes) + 3 of 8.
	truncatedFloat := full[:1+6+3]
	for _, key := range []bitkey.Key{f.covered, f.uncovered} {
		for name, payload := range map[string][]byte{"hostile-count": hostileCount, "truncated-float": truncatedFloat} {
			_, err := f.client.deliver(key, core.ObjectData, payload)
			var re *RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "bad data payload") {
				t.Errorf("key %s, %s: err = %v, want a remote bad data payload error", key, name, err)
			}
		}
	}

	var node *Node
	var g bitkey.Group
	for _, n := range f.nodes {
		if held, ok := n.Server().ManagesKey(f.uncovered); ok {
			node, g = n, held
		}
	}
	if node == nil {
		t.Fatalf("no node manages %s", f.uncovered)
	}
	node.meter = load.NewMeterClock(1, nil) // nominal 1 s window: rate == packet count
	if _, err := f.client.Publish(f.uncovered, map[string]float64{"speed": 80}, []byte("evt")); err != nil {
		t.Fatal(err)
	}
	if got := node.meter.Snapshot()[g]; got != 1 {
		t.Errorf("metered %v packets for %s, want 1", got, g)
	}
}

// TestRegisterAllocs caps the allocations of one Register on the warmed
// in-memory fixture, replication 2, counted end to end: the client's encode
// and call, the node's decode, registration and delta push to its two
// replica holders, the holders' storing of the delta and the replies.
func TestRegisterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	f := newPublishFixture(t)
	var holder *Node
	for _, n := range f.nodes {
		if _, ok := n.Server().ManagesKey(f.covered); ok {
			holder = n
		}
	}
	if holder == nil {
		t.Fatal("no node holds the fixture's group")
	}
	preds := []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}}
	queries := make([]cq.Query, 400)
	for i := range queries {
		queries[i] = cq.Query{ID: fmt.Sprintf("q-%05d", i), Region: bitkey.MustParseGroup("001"), Predicates: preds}
	}
	next := 0
	register := func() {
		if _, err := f.client.Register(queries[next]); err != nil {
			t.Fatalf("Register %s: %v", queries[next].ID, err)
		}
		next++
	}
	for next < 100 {
		register() // warm the pools, the maps and the holders' delta logs
	}
	before := holder.ReplicaPushes()
	allocs := testing.AllocsPerRun(100, register)
	pushes := pushDiff(before, holder.ReplicaPushes())
	t.Logf("allocs per Register: %.1f; replica pushes %+v", allocs, pushes)
	if pushes.Delta < 10*pushes.Full {
		t.Fatalf("replica pushes %+v: want registrations pushed as deltas", pushes)
	}
	// Measured 5 with go1.24, the toolchain CI builds with: what the node
	// keeps of the query (its subscriber, ID, predicate slice and attribute
	// name) and its stored replica record. A JSON decode cost about 10, a
	// push planned on the heap about 12 more.
	const ceiling = 5
	if allocs > ceiling {
		t.Errorf("allocations per Register = %v, want <= %d", allocs, ceiling)
	}
}

// TestRegisterAllocsFlat bounds how a Register's allocations grow with the
// number of queries its group already stores. A registration pushes its
// changed record to the two successors as a delta, and the full replica
// state when a successor is not known to hold the previous version or its
// delta log has grown to the size of its full copy (about once per
// stored-state's worth of records). A per-query allocation anywhere on the
// full path (encoding the queries, building the group records, storing the
// received copy) shows here averaged over those registrations; one on the
// delta path (finding the changed query, merging it into the log) would
// show in full.
func TestRegisterAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	f := newPublishFixture(t)
	stored := 1 // the fixture's q-fast, in the same group
	register := func() {
		q := cq.Query{
			ID:         fmt.Sprintf("q-%05d", stored),
			Region:     bitkey.MustParseGroup("001"),
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		if _, err := f.client.Register(q); err != nil {
			t.Fatalf("Register %s: %v", q.ID, err)
		}
		stored++
	}
	allocsAt := func(n int) float64 {
		for stored < n {
			register()
		}
		return testing.AllocsPerRun(20, register)
	}
	const lo, hi = 100, 400
	aLo, aHi := allocsAt(lo), allocsAt(hi)
	perQuery := (aHi - aLo) / (hi - lo)
	t.Logf("allocs per Register: %.0f at %d stored queries, %.0f at %d (%.3f per stored query)", aLo, lo, aHi, hi, perQuery)
	// Measured 0.007 with go1.24: slice growth, logarithmic in the stored
	// queries. One allocation per query per push (re-encoding or copying
	// each record, say) reads 1 or more.
	const ceiling = 0.5
	if perQuery > ceiling {
		t.Errorf("allocations per Register grow by %.3f per stored query, want <= %.1f", perQuery, ceiling)
	}
}

// TestRegisterPushBytesFlat bounds how the bytes a Register sends to its
// replica holders grow with the queries its group already stores: by at most
// 1 B per stored query, measured as the median over 21 registrations at 100
// and at 400 stored queries. A full-state push per registration costs about
// 95 B per stored query for each of the two holders. The median is the
// registrations' own delta pushes: the full push that the delta-log bound
// brings back recurs only once per stored-state's worth of records.
func TestRegisterPushBytesFlat(t *testing.T) {
	f := newPublishFixture(t)
	var holder *Node
	for _, n := range f.nodes {
		if _, ok := n.Server().ManagesKey(f.covered); ok {
			holder = n
		}
	}
	if holder == nil {
		t.Fatal("no node holds the fixture's group")
	}
	stored := 1 // the fixture's q-fast, in the same group
	register := func() uint64 {
		q := cq.Query{
			ID:         fmt.Sprintf("q-%05d", stored),
			Region:     bitkey.NewGroup(bitkey.Key{Value: 0b001<<13 | uint64(stored), Bits: 16}),
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		before := holder.TransportStats().BytesOut
		if _, err := f.client.Register(q); err != nil {
			t.Fatalf("Register %s: %v", q.ID, err)
		}
		stored++
		return holder.TransportStats().BytesOut - before
	}
	bytesAt := func(n int) float64 {
		for stored < n {
			register()
		}
		sent := make([]uint64, 21)
		for i := range sent {
			sent[i] = register()
		}
		slices.Sort(sent)
		return float64(sent[len(sent)/2])
	}
	const lo, hi = 100, 400
	bLo, bHi := bytesAt(lo), bytesAt(hi)
	perQuery := (bHi - bLo) / (hi - lo)
	t.Logf("median bytes a Register sends from its holder: %.0f at %d stored queries, %.0f at %d (%.3f per stored query)", bLo, lo, bHi, hi, perQuery)
	const ceiling = 1.0
	if perQuery > ceiling {
		t.Errorf("replica bytes per Register grow by %.3f per stored query, want <= %.0f", perQuery, ceiling)
	}
}

// BenchmarkRegisterStored times one Register, replica push included, while
// its group already stores 100 or 1000 queries, each in its own region: the
// slope of ns/op between the two sizes is the push's cost per stored query.
// Most registrations push a one-record delta; a full push, whose cost does
// grow with the stored queries, recurs once the successors' delta logs reach
// the size of their full copy, so its cost per registration stays flat.
// Each iteration's query is removed from its holder again outside the timer,
// so the stored count stays put however many iterations run.
func BenchmarkRegisterStored(b *testing.B) {
	for _, stored := range []int{100, 1000} {
		b.Run(strconv.Itoa(stored), func(b *testing.B) {
			f := newPublishFixture(b)
			query := func(i int) cq.Query {
				return cq.Query{
					ID:         fmt.Sprintf("q-%05d", i),
					Region:     bitkey.NewGroup(bitkey.Key{Value: 0b001<<13 | uint64(i), Bits: 16}),
					Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
				}
			}
			for i := 1; i < stored; i++ { // the fixture's q-fast is the first
				if _, err := f.client.Register(query(i)); err != nil {
					b.Fatal(err)
				}
			}
			var holder *Node
			for _, n := range f.nodes {
				if _, ok := n.Server().ManagesKey(f.covered); ok {
					holder = n
				}
			}
			q := query(stored)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.client.Register(q); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := holder.Engine().Unregister(q.ID); err != nil {
					b.Fatal(err)
				}
				holder.mu.Lock()
				delete(holder.queries, q.ID)
				holder.mu.Unlock()
				b.StartTimer()
			}
		})
	}
}
