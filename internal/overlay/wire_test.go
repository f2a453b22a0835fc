package overlay

import (
	"bytes"
	"reflect"
	"testing"

	"clash/internal/bitkey"
	"clash/internal/cq"
	"clash/internal/wirecodec"
)

// overlayWireCases returns one populated instance of every overlay-local
// wire message (round-trip and fuzz tests iterate them).
func overlayWireCases() []wireMsg {
	return []wireMsg{
		&nodeRefMsg{Addr: "10.0.0.1:7001", ID: 1<<63 - 1},
		&findSuccessorMsg{ID: 424242},
		&notifyMsg{Candidate: nodeRefMsg{Addr: "n2", ID: 7}},
		// As decoded: the attribute section, not the map it was encoded from
		// (TestDataMsgAttrSection covers the map).
		&dataMsg{AttrSection: wirecodec.AppendAttrs(nil, map[string]float64{"speed": 88.5, "lat": -12.25}), Payload: []byte("record")},
		&dataMsg{AttrSection: wirecodec.AppendAttrs(nil, nil)},
		&queryState{Query: queryRecord(cq.Query{ID: "q", Region: bitkey.MustParseGroup("01*"),
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}}}), Subscriber: "client-1"},
		&childMovedMsg{GroupValue: 0b101, GroupBits: 3, Holder: "n3"},
		&matchMsg{QueryID: "q-hot", KeyValue: 0xBEEF, KeyBits: 16,
			Attrs: wirecodec.AppendAttrs(nil, map[string]float64{"speed": 99}), Payload: []byte("evt")},
		// Zero in their trailing fields, like any field an older writer
		// leaves off: the truncations that drop them are older layouts
		// (TestReplicateMsgWireRoundTrip covers populated pushes). An empty
		// ack is the reply of a holder that predates its fields.
		&replicateMsg{Origin: "n4", Incarnation: 9, Version: 5},
		&replicateMsg{Origin: "n4", Incarnation: 9, Version: 6, Groups: []replicaGroupRec{
			{GroupValue: 1, GroupBits: 2, Parent: "n1", Epoch: 1, Queries: [][]byte{[]byte("q")}}}},
		&replicateAck{},
	}
}

// queryRecord encodes a query whose values are finite and whose operators
// are valid, which AppendWire never refuses.
func queryRecord(q cq.Query) []byte {
	rec, err := q.AppendWire(nil)
	if err != nil {
		panic(err)
	}
	return rec
}

func TestOverlayMsgWireRoundTrip(t *testing.T) {
	for _, msg := range overlayWireCases() {
		enc := msg.MarshalWire(nil)
		// Decode into a fresh instance of the same concrete type.
		got := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMsg)
		if err := got.UnmarshalWire(enc); err != nil {
			t.Fatalf("UnmarshalWire(%T): %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%T round trip = %+v, want %+v", msg, got, msg)
		}
	}
}

func TestOverlayMsgWireRejectsTruncation(t *testing.T) {
	for _, msg := range overlayWireCases() {
		enc := msg.MarshalWire(nil)
		for i := 0; i < len(enc); i++ {
			got := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMsg)
			err := got.UnmarshalWire(enc[:i])
			if err == nil {
				// The append-only evolution contract makes one class of
				// truncation legal: a prefix that drops whole appended
				// optional fields is exactly what an old writer would have
				// sent. Such a prefix must decode back to the original
				// message (the dropped fields were zero, so re-encoding
				// reproduces the full frame); anything else is a malformed
				// frame the decoder wrongly accepted.
				if !bytes.Equal(got.MarshalWire(nil), enc) {
					t.Errorf("%T accepted %d-byte truncation of %d bytes", msg, i, len(enc))
				}
				continue
			}
		}
	}
}

// TestAttrCountGuard pins the over-allocation guard: an attribute count
// larger than the remaining input could possibly encode (9 bytes minimum
// per entry) must be rejected before the map is allocated.
func TestAttrCountGuard(t *testing.T) {
	// Count says 1000 attrs, but only ~20 bytes follow.
	hostile := wirecodec.AppendInt(nil, 1000)
	hostile = append(hostile, bytes.Repeat([]byte{0x01}, 20)...)
	var d dataMsg
	if err := d.UnmarshalWire(hostile); err == nil {
		t.Error("dataMsg accepted hostile attr count")
	}
	var m matchMsg
	withPrefix := wirecodec.AppendString(nil, "q")
	withPrefix = wirecodec.AppendInt(withPrefix, 8)
	withPrefix = wirecodec.AppendUvarint(withPrefix, 5)
	withPrefix = append(withPrefix, hostile...)
	if err := m.UnmarshalWire(withPrefix); err == nil {
		t.Error("matchMsg accepted hostile attr count")
	}
	// A legitimate boundary case still decodes: one attr in exactly 9+ bytes.
	ok := (&dataMsg{Attrs: map[string]float64{"": 1}}).MarshalWire(nil)
	var d2 dataMsg
	if err := d2.UnmarshalWire(ok); err != nil {
		t.Errorf("minimal attr map rejected: %v", err)
	}
}

// TestTypeRegistryBijective pins the name↔byte mapping: every registered
// name resolves to a distinct byte and back.
func TestTypeRegistryBijective(t *testing.T) {
	seen := map[byte]string{}
	for name, b := range typeRegistry {
		if prev, dup := seen[b]; dup {
			t.Errorf("type byte %#x assigned to both %q and %q", b, prev, name)
		}
		seen[b] = name
		if typeName(b) != name {
			t.Errorf("typeName(%#x) = %q, want %q", b, typeName(b), name)
		}
	}
	if typeName(0x7E) != "" {
		t.Errorf("unassigned byte resolved to %q", typeName(0x7E))
	}
	if _, err := typeByte("no.such.type"); err == nil {
		t.Error("typeByte accepted an unregistered name")
	}
}

// prefixKey builds a key whose top bits are prefix (of prefixBits) and whose
// remaining bits come from low.
func prefixKey(t *testing.T, keyBits int, prefix uint64, prefixBits int, low uint64) bitkey.Key {
	t.Helper()
	rest := keyBits - prefixBits
	k, err := bitkey.New(prefix<<uint(rest)|low&(1<<uint(rest)-1), keyBits)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestBatchThroughOverlay drives the batched publish path end to end: a
// client warms its route cache, then publishes a batch that must cross as
// one TypeAcceptBatch frame per server, match continuous queries inline and
// keep per-item accounting.
func TestBatchThroughOverlay(t *testing.T) {
	netw := NewMemNetwork()
	cfg := testConfig()
	nodes := buildOverlay(t, netw, 3, cfg)
	seeds := []string{nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr()}

	client, err := NewClient(netw.Endpoint("batch-client"), cfg.KeyBits, cfg.Space, seeds...)
	if err != nil {
		t.Fatal(err)
	}

	query := cq.Query{
		ID:         "q-batch",
		Region:     bitkey.MustParseGroup("001"),
		Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
	}
	if _, err := client.Register(query); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Warm the cache across all four root groups.
	for top := uint64(0); top < 4; top++ {
		if _, err := client.Publish(prefixKey(t, cfg.KeyBits, top, 2, top*17+1), nil, nil); err != nil {
			t.Fatalf("warmup publish: %v", err)
		}
	}
	// Batch across the four depth-3 regions 000..011; every packet passes
	// the predicate, so exactly the 001* items must match the query.
	const n = 64
	var items []BatchItem
	for i := 0; i < n; i++ {
		items = append(items, BatchItem{
			Key:   prefixKey(t, cfg.KeyBits, uint64(i%4), 3, uint64(i)),
			Attrs: map[string]float64{"speed": 80},
		})
	}
	batchFramesBefore := netw.Calls(TypeAcceptBatch)
	singlesBefore := netw.Calls(TypeAcceptObject)
	results, errs := client.PublishBatch(items)
	for i := range items {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if results[i].Server == "" {
			t.Fatalf("item %d: missing result", i)
		}
	}
	batchFrames := netw.Calls(TypeAcceptBatch) - batchFramesBefore
	if batchFrames == 0 {
		t.Fatal("no TypeAcceptBatch frame crossed the wire")
	}
	holders := map[string]bool{}
	for _, r := range results {
		holders[r.Server] = true
	}
	if batchFrames > len(holders) {
		t.Errorf("batch used %d frames for %d servers", batchFrames, len(holders))
	}
	if got := netw.Calls(TypeAcceptObject) - singlesBefore; got != 0 {
		t.Errorf("%d single-object frames sent despite warm cache", got)
	}
	matched := 0
	for i, r := range results {
		inRegion := i%4 == 1
		if got := len(r.Matches) > 0; got != inRegion {
			t.Errorf("item %d: matched=%v, in 001* region=%v", i, got, inRegion)
		}
		if len(r.Matches) > 0 {
			matched++
		}
	}
	if matched != n/4 {
		t.Errorf("matched %d items, want %d", matched, n/4)
	}
}

// frameBytesEqualAcrossEncoders double-checks that repeated encodes of the
// same frame are identical (the codec is deterministic for identical input).
func TestFrameEncodeDeterministic(t *testing.T) {
	payload := (&findSuccessorMsg{ID: 99}).MarshalWire(nil)
	a, err := appendFrame(nil, 7, typeFindSuccessor, payload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := appendFrame(nil, 7, typeFindSuccessor, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same frame encoded differently twice")
	}
}

func TestReplicateMsgWireRoundTrip(t *testing.T) {
	m := replicateMsg{
		Origin:      "node-7",
		Incarnation: 123456789,
		Version:     42,
		Groups: []replicaGroupRec{
			{GroupValue: 0b01, GroupBits: 2, Parent: "node-1", IsRoot: true, Epoch: 3,
				Queries: [][]byte{[]byte(`{"id":"q1"}`), []byte(`{"id":"q2"}`)}},
			{GroupValue: 0b110, GroupBits: 3, Parent: "", Epoch: 0},
		},
		Loose: [][]byte{[]byte(`{"id":"q-loose"}`)},
	}
	var got replicateMsg
	if err := got.UnmarshalWire(m.MarshalWire(nil)); err != nil {
		t.Fatalf("UnmarshalWire: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}

	r := recoverMsg{Origin: "node-7"}
	var gotR recoverMsg
	if err := gotR.UnmarshalWire(r.MarshalWire(nil)); err != nil {
		t.Fatalf("recoverMsg: %v", err)
	}
	if gotR != r {
		t.Errorf("recover round trip = %+v, want %+v", gotR, r)
	}

	// A truncation cutting into the Loose section must error. (Dropping the
	// trailing trace context alone is legal — that is an old writer's frame —
	// so the cut reaches one byte further, into the last loose entry.)
	bad := append([]byte(nil), m.MarshalWire(nil)...)
	var trunc replicateMsg
	if err := trunc.UnmarshalWire(bad[:len(bad)-5]); err == nil {
		t.Error("truncated replicateMsg decoded without error")
	}

	// A delta push: Base trails the trace context. Cut off, it is the frame
	// of a writer that predates Base, which only ever sent full pushes: it
	// decodes as Base 0.
	d := replicateMsg{Origin: "node-7", Incarnation: 123456789, Version: 43, Base: 42,
		Groups: m.Groups[:1], TraceID: 7, ParentSpan: 8, Hop: 1}
	enc := d.MarshalWire(nil)
	var gotD replicateMsg
	if err := gotD.UnmarshalWire(enc); err != nil || !reflect.DeepEqual(gotD, d) {
		t.Errorf("delta round trip = %+v (%v), want %+v", gotD, err, d)
	}
	if err := gotD.UnmarshalWire(enc[:len(enc)-1]); err != nil || gotD.Base != 0 || gotD.Hop != 1 {
		t.Errorf("pre-Base frame decoded as %+v (%v), want Base 0", gotD, err)
	}
	// A delta must move past its base and carry no loose records.
	for name, bad := range map[string]replicateMsg{
		"version at base": {Origin: "n", Incarnation: 1, Version: 42, Base: 42},
		"loose records":   {Origin: "n", Incarnation: 1, Version: 43, Base: 42, Loose: m.Loose},
	} {
		if err := gotD.UnmarshalWire(bad.MarshalWire(nil)); err == nil {
			t.Errorf("a delta with %s decoded without error", name)
		}
	}
}

// TestOverlayTraceContextWire pins the PR 9 wire evolution of the two
// overlay-local messages that carry a sampled publish's trace context:
// matchMsg (behind Payload) and replicateMsg (behind the Loose section).
// Frames from pre-span writers decode untraced, and pre-span readers of new
// frames stop cleanly with the trace bytes left trailing.
func TestOverlayTraceContextWire(t *testing.T) {
	mm := matchMsg{QueryID: "q1", KeyValue: 0b1010, KeyBits: 16,
		Attrs: wirecodec.AppendAttrs(nil, map[string]float64{"speed": 61}), Payload: []byte("evt"),
		TraceID: 0xAB, ParentSpan: 0xCD, Hop: 3}
	var gotM matchMsg
	if err := gotM.UnmarshalWire(mm.MarshalWire(nil)); err != nil {
		t.Fatalf("matchMsg round trip: %v", err)
	}
	if !reflect.DeepEqual(gotM, mm) {
		t.Errorf("matchMsg round trip = %+v, want %+v", gotM, mm)
	}

	// New decoder, old encoder: the pre-span layout stops after Payload.
	old := wirecodec.AppendString(nil, mm.QueryID)
	old = wirecodec.AppendInt(old, mm.KeyBits)
	old = wirecodec.AppendUvarint(old, mm.KeyValue)
	old = wirecodec.AppendAttrSection(old, mm.Attrs)
	old = wirecodec.AppendBytes(old, mm.Payload)
	var legacy matchMsg
	if err := legacy.UnmarshalWire(old); err != nil {
		t.Fatalf("legacy matchMsg decode: %v", err)
	}
	if legacy.TraceID != 0 || legacy.ParentSpan != 0 || legacy.Hop != 0 {
		t.Errorf("legacy matchMsg decoded trace context (%d,%d,%d), want zeros",
			legacy.TraceID, legacy.ParentSpan, legacy.Hop)
	}
	if legacy.QueryID != mm.QueryID || !bytes.Equal(legacy.Payload, mm.Payload) {
		t.Errorf("legacy matchMsg = %+v, want pre-span fields of %+v", legacy, mm)
	}

	// Old decoder, new encoder: a pre-span reader stops after Payload and
	// ignores the trailing trace bytes.
	r := wirecodec.NewReader(mm.MarshalWire(nil))
	_ = r.String()  // query id
	_ = r.Int()     // key bits
	_ = r.Uvarint() // key value
	_ = r.AttrSection()
	_ = r.Bytes() // payload
	if err := r.Err(); err != nil {
		t.Fatalf("old-shape decode of new matchMsg: %v", err)
	}
	if r.Len() == 0 {
		t.Error("new matchMsg carries no trailing trace bytes to ignore")
	}

	rm := replicateMsg{Origin: "n1", Incarnation: 9, Version: 2,
		Groups: []replicaGroupRec{{GroupValue: 1, GroupBits: 2, Queries: [][]byte{[]byte("q")}}},
		Loose:  [][]byte{[]byte("lq")}, TraceID: 7, ParentSpan: 8, Hop: 1}
	var gotR replicateMsg
	if err := gotR.UnmarshalWire(rm.MarshalWire(nil)); err != nil {
		t.Fatalf("replicateMsg round trip: %v", err)
	}
	if !reflect.DeepEqual(gotR, rm) {
		t.Errorf("replicateMsg round trip = %+v, want %+v", gotR, rm)
	}

	// New decoder, Loose-era (pre-span) encoder: origin, incarnation,
	// version, group records, loose entries — and nothing after.
	old = wirecodec.AppendString(nil, rm.Origin)
	old = wirecodec.AppendUvarint(old, rm.Incarnation)
	old = wirecodec.AppendUvarint(old, rm.Version)
	old = wirecodec.AppendInt(old, len(rm.Groups))
	for i := range rm.Groups {
		old = wirecodec.AppendBytes(old, rm.Groups[i].MarshalWire(nil))
	}
	old = wirecodec.AppendInt(old, len(rm.Loose))
	for _, q := range rm.Loose {
		old = wirecodec.AppendBytes(old, q)
	}
	var legacyR replicateMsg
	if err := legacyR.UnmarshalWire(old); err != nil {
		t.Fatalf("legacy replicateMsg decode: %v", err)
	}
	if legacyR.TraceID != 0 || legacyR.ParentSpan != 0 || legacyR.Hop != 0 {
		t.Errorf("legacy replicateMsg decoded trace context (%d,%d,%d), want zeros",
			legacyR.TraceID, legacyR.ParentSpan, legacyR.Hop)
	}
	if len(legacyR.Loose) != 1 || !bytes.Equal(legacyR.Loose[0], rm.Loose[0]) {
		t.Errorf("legacy replicateMsg loose section = %v, want %v", legacyR.Loose, rm.Loose)
	}
}
