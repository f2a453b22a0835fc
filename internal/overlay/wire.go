// Package overlay is the live CLASH overlay: it wires the transport-agnostic
// protocol pieces (chord.Node, core.Server, cq.Engine, load.Meter) into
// networked nodes and clients exchanging real messages.
//
// The wire protocol is a hand-rolled binary codec over length-prefixed,
// sequence-numbered frames:
//
//	offset  size  field
//	0       4     payload length (big-endian uint32)
//	4       8     sequence ID   (big-endian uint64)
//	12      1     protocol version (wireVersion)
//	13      1     message type byte
//	14      n     payload (message-specific binary encoding, wirecodec)
//
// Requests carry a caller-chosen sequence ID; the matching reply echoes it
// with type typeReplyOK (payload = encoded reply message) or typeReplyErr
// (payload = error text). Because replies are matched by sequence ID rather
// than by position, many calls can be in flight on one connection at once
// and replies may arrive out of order (see tcp.go). The same framing is used
// by the TCP transport and — byte for byte — by the in-memory transport, so
// deterministic tests exercise the exact encoding production traffic uses.
//
// Notifications: sequence ID 0 marks a one-way request that gets no reply at
// all (no result, error or shed frame). The TCP transport sends the one-way
// types (oneWay: TypeMatch) that way, which halves the frames of a match
// push. The sender decides by message type, the receiver only by the
// sequence ID, so mixed versions interoperate: a match call from an older
// sender carries a nonzero ID and still gets its reply, and a reply with ID
// 0 from an older receiver matches no waiting call and is dropped. The
// in-memory transport still carries every message, matches included, as a
// request/reply round trip, so the simulator's link model is unchanged.
//
// Versioning: the version byte names the frame layout and the per-message
// field layout as a whole. Within one version, message fields may only ever
// be appended (decoders ignore unrecognised trailing bytes); any
// incompatible change bumps wireVersion, and a reader that sees an unknown
// version closes the connection as corrupt.
package overlay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"clash/internal/wirecodec"
)

// Wire message types (protocol names). The clash.* types correspond
// one-to-one to the protocol messages in internal/core/messages.go; the
// chord.* types carry the chord.RPC surface. On the wire each name travels
// as a single type byte (see typeByte/typeName).
const (
	// TypeFindSuccessor asks a node to resolve the successor of a hash point.
	TypeFindSuccessor = "chord.find_successor"
	// TypePredecessor asks a node for its current predecessor.
	TypePredecessor = "chord.predecessor"
	// TypeSuccessor asks a node for its current immediate successor (a
	// single pointer read — no routing, see chord.RPC.Successor).
	TypeSuccessor = "chord.successor"
	// TypeNotify tells a node about a possible predecessor.
	TypeNotify = "chord.notify"
	// TypePing checks liveness.
	TypePing = "chord.ping"

	// TypeAcceptObject carries a data packet or query registration
	// (core.AcceptObjectMsg).
	TypeAcceptObject = "clash.accept_object"
	// TypeAcceptBatch carries a vector of ACCEPT_OBJECT bodies in one frame
	// (core.AcceptBatchMsg).
	TypeAcceptBatch = "clash.accept_batch"
	// TypeAcceptKeyGroup transfers a key group and its query state
	// (core.AcceptKeyGroupMsg).
	TypeAcceptKeyGroup = "clash.accept_keygroup"
	// TypeLoadReport is the periodic leaf→parent load report
	// (core.LoadReportMsg).
	TypeLoadReport = "clash.load_report"
	// TypeReleaseKeyGroup reclaims a key group during consolidation
	// (core.ReleaseKeyGroupMsg).
	TypeReleaseKeyGroup = "clash.release_keygroup"
	// TypeMatch pushes a continuous-query match to the subscriber that
	// registered the query.
	TypeMatch = "clash.match"
	// TypeChildMoved tells the parent of a transferred right child that the
	// child group was re-homed to a different server (DHT ownership change),
	// so load reports from the new holder are accepted and consolidation
	// keeps working.
	TypeChildMoved = "clash.child_moved"
	// TypeStatus returns a node's JSON status snapshot.
	TypeStatus = "clash.status"
	// TypeReplicateKeyGroup pushes a node's replicable key-group state
	// (group snapshots + their continuous-query state) to a successor, which
	// stores it keyed by origin (replicateMsg). Pushed to the first k live
	// successors after every CQ registration, split, merge and transfer,
	// every load-check period and on successor-list changes, so replicas
	// follow ring churn. A push with Base 0 carries the full state; one with
	// Base > 0 carries only the query records changed since version Base
	// (none: a heartbeat) and applies only on top of exactly that version.
	// The reply is a replicateAck. Type byte 0x1C, which carried a separate
	// delta push, is retired and never reused.
	TypeReplicateKeyGroup = "clash.replicate_keygroup"
	// TypeRecoverKeyGroups asks a peer for the replica set it stores for a
	// given origin. A node rejoining after a crash queries its successors and
	// restores the freshest copy of its own pre-crash state.
	TypeRecoverKeyGroups = "clash.recover_keygroups"
	// TypeTopology asks a node for its topology snapshot (ring pointers,
	// active groups with loads, replica origins). The hub's /topology
	// endpoint walks the ring with it.
	TypeTopology = "clash.topology"
)

// Wire type bytes. Request types live below 0xF0; the two reply types sit at
// the top of the space. New types are appended, never renumbered (renumbering
// is an incompatible change and would bump wireVersion).
const (
	typeFindSuccessor     byte = 0x01
	typePredecessor       byte = 0x02
	typeNotify            byte = 0x03
	typePing              byte = 0x04
	typeAcceptObject      byte = 0x10
	typeAcceptBatch       byte = 0x11
	typeAcceptKeyGroup    byte = 0x12
	typeLoadReport        byte = 0x13
	typeReleaseKeyGroup   byte = 0x14
	typeMatch             byte = 0x15
	typeChildMoved        byte = 0x16
	typeStatus            byte = 0x17
	typeSuccessor         byte = 0x18
	typeReplicateKeyGroup byte = 0x19
	typeRecoverKeyGroups  byte = 0x1A
	typeTopology          byte = 0x1B
	// 0x1C (clash.replicate_delta) is retired: never reuse it.

	typeReplyOK  byte = 0xF0
	typeReplyErr byte = 0xF1
	// typeReplyShed answers a request the server refused under overload
	// without dispatching it; the payload is explanatory text. The caller
	// surfaces it as ErrShed (retryable for any message type, since the
	// handler never ran).
	typeReplyShed byte = 0xF2
)

// typeRegistry maps protocol names to type bytes; nameRegistry is the
// inverse, indexed by type byte for allocation-free lookup on the read path.
var (
	typeRegistry = map[string]byte{
		TypeFindSuccessor:     typeFindSuccessor,
		TypePredecessor:       typePredecessor,
		TypeNotify:            typeNotify,
		TypePing:              typePing,
		TypeAcceptObject:      typeAcceptObject,
		TypeAcceptBatch:       typeAcceptBatch,
		TypeAcceptKeyGroup:    typeAcceptKeyGroup,
		TypeLoadReport:        typeLoadReport,
		TypeReleaseKeyGroup:   typeReleaseKeyGroup,
		TypeMatch:             typeMatch,
		TypeChildMoved:        typeChildMoved,
		TypeStatus:            typeStatus,
		TypeSuccessor:         typeSuccessor,
		TypeReplicateKeyGroup: typeReplicateKeyGroup,
		TypeRecoverKeyGroups:  typeRecoverKeyGroups,
		TypeTopology:          typeTopology,
	}
	nameRegistry [256]string
)

func init() {
	for name, b := range typeRegistry {
		nameRegistry[b] = name
	}
}

// typeByte resolves a protocol name to its wire byte.
func typeByte(name string) (byte, error) {
	b, ok := typeRegistry[name]
	if !ok {
		return 0, fmt.Errorf("%w: unregistered message type %q", ErrBadFrame, name)
	}
	return b, nil
}

// oneWay reports whether the TCP transport sends typ as a notification
// (sequence ID 0, no reply). Only match pushes are: their reply carried
// nothing, and their delivery is at-most-once either way.
func oneWay(typ byte) bool { return typ == typeMatch }

// typeName resolves a wire byte to its protocol name ("" when unknown; an
// unknown request type is answered with a framed error, not a closed
// connection).
func typeName(b byte) string { return nameRegistry[b] }

// MessageTypes returns every registered protocol message name, sorted. The
// simulator iterates it to aggregate per-type counters, so a newly added
// wire type is picked up without a second hand-maintained list.
func MessageTypes() []string {
	out := make([]string, 0, len(typeRegistry))
	for name := range typeRegistry {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// Frame geometry.
const (
	// wireVersion is the frame-layout version emitted and accepted.
	wireVersion = 1
	// frameHeaderSize is the fixed header: length + seq + version + type.
	frameHeaderSize = 4 + 8 + 1 + 1
	// maxFrameSize bounds a frame payload to keep a malformed or hostile
	// peer from forcing an unbounded allocation.
	maxFrameSize = 16 << 20
	// frameReadChunk caps how much payload is allocated ahead of the bytes
	// actually received, bounding the damage of a length header whose
	// payload never arrives.
	frameReadChunk = 64 << 10
)

// Framing errors.
var (
	// ErrFrameTooLarge is returned when a frame payload exceeds maxFrameSize.
	// On the read side it is recoverable: the oversized payload has been
	// skipped and the connection remains framed (readFrameInto returns the
	// header so the server can answer with a framed error).
	ErrFrameTooLarge = errors.New("overlay: frame exceeds size limit")
	// ErrBadFrame is returned when a frame is structurally invalid
	// (unknown version, unregistered type on the write path). It is
	// unrecoverable on the read side: framing sync cannot be trusted.
	ErrBadFrame = errors.New("overlay: malformed frame")
)

// frame is one decoded wire frame.
type frame struct {
	seq     uint64
	typ     byte
	payload []byte
}

// appendFrame appends the complete frame encoding to dst. It is the single
// encoder both transports use, which is what keeps them byte-identical.
func appendFrame(dst []byte, seq uint64, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > maxFrameSize {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = append(dst, wireVersion, typ)
	return append(dst, payload...), nil
}

// parseFrameHeader decodes the fixed frame header at the start of hdr (at
// least frameHeaderSize bytes): the frame's sequence ID and type, and the
// declared payload length. It is the one header decoder both the in-place
// slice decoder and the stream reader use. An unknown version is
// ErrBadFrame.
func parseFrameHeader(hdr []byte) (f frame, n uint32, err error) {
	n = binary.BigEndian.Uint32(hdr[0:4])
	f.seq = binary.BigEndian.Uint64(hdr[4:12])
	f.typ = hdr[13]
	if ver := hdr[12]; ver != wireVersion {
		return f, n, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, ver, wireVersion)
	}
	return f, n, nil
}

// decodeFrame decodes the frame at the start of b in place: the returned
// payload aliases b, so nothing is copied or allocated. Bytes past the frame
// are ignored. It fails like readFrameInto on a stream holding the same
// bytes: io.EOF on empty input, io.ErrUnexpectedEOF on a short header or
// payload, ErrBadFrame on an unknown version, and ErrFrameTooLarge (with the
// decoded header) when the declared length exceeds maxFrameSize.
func decodeFrame(b []byte) (frame, error) {
	if len(b) < frameHeaderSize {
		if len(b) == 0 {
			return frame{}, io.EOF
		}
		return frame{}, io.ErrUnexpectedEOF
	}
	f, n, err := parseFrameHeader(b)
	if err != nil {
		return f, err
	}
	b = b[frameHeaderSize:]
	if uint64(n) > uint64(len(b)) {
		return f, io.ErrUnexpectedEOF
	}
	if n > maxFrameSize {
		return f, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	f.payload = b[:n:n]
	return f, nil
}

// readFrameInto reads one frame from r, reading the payload into buf
// (typically a pooled wirecodec buffer) — the zero-copy entry of the pooled
// request path: the payload buffer travels from the socket read through
// decode and dispatch and back to the pool after the reply is flushed. The
// returned frame's payload is buf, grown as needed, on EVERY return path
// (even errors), so the caller can always recycle f.payload with PutBuf. A
// nil buf allocates fresh. The header is decoded in r's own buffer (Peek,
// then Discard), so reading it allocates nothing.
//
// A stream that ends cleanly before a frame returns io.EOF, one that ends
// inside a header io.ErrUnexpectedEOF. When the advertised payload exceeds
// maxFrameSize, the payload is discarded from the stream and the decoded
// header is returned alongside ErrFrameTooLarge: framing stays intact, so the
// caller can answer with a framed error and keep the connection. Any other
// error (short read, unknown version) is unrecoverable.
func readFrameInto(r *bufio.Reader, buf []byte) (frame, error) {
	hdr, err := r.Peek(frameHeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return frame{payload: buf[:0]}, err
	}
	f, n, err := parseFrameHeader(hdr)
	f.payload = buf[:0]
	// Peek guaranteed the header bytes are buffered, so Discard cannot fail.
	_, _ = r.Discard(frameHeaderSize)
	if err != nil {
		return f, err
	}
	if n > maxFrameSize {
		// Recoverable: skip the oversized payload so the stream stays framed.
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return f, err
		}
		return f, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	// Read the payload in capped chunks growing with the data that actually
	// arrives, so a malformed header declaring a huge length cannot force a
	// huge allocation before the stream runs dry.
	remaining := int(n)
	for remaining > 0 {
		k := remaining
		if k > frameReadChunk {
			k = frameReadChunk
		}
		start := len(f.payload)
		f.payload = slices.Grow(f.payload, k)[:start+k]
		if _, err := io.ReadFull(r, f.payload[start:]); err != nil {
			return f, err
		}
		remaining -= k
	}
	return f, nil
}

// wireMsg is a protocol message with the hand-rolled binary codec.
type wireMsg interface {
	// MarshalWire appends the message encoding to b and returns the grown
	// buffer (append-style, allocation-free into a pooled buffer).
	MarshalWire(b []byte) []byte
	// UnmarshalWire decodes the message from data. Byte-slice fields may
	// alias data.
	UnmarshalWire(data []byte) error
}

// nodeRefMsg is the wire form of a chord.NodeRef.
type nodeRefMsg struct {
	Addr string `json:"addr"`
	ID   uint64 `json:"id"`
}

// MarshalWire implements wireMsg.
func (m *nodeRefMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendString(b, m.Addr)
	return wirecodec.AppendUvarint(b, m.ID)
}

// UnmarshalWire implements wireMsg.
func (m *nodeRefMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Addr = r.String()
	m.ID = r.Uvarint()
	return r.Err()
}

// findSuccessorMsg is the payload of TypeFindSuccessor.
type findSuccessorMsg struct {
	ID uint64 `json:"id"`
}

// MarshalWire implements wireMsg.
func (m *findSuccessorMsg) MarshalWire(b []byte) []byte {
	return wirecodec.AppendUvarint(b, m.ID)
}

// UnmarshalWire implements wireMsg.
func (m *findSuccessorMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.ID = r.Uvarint()
	return r.Err()
}

// notifyMsg is the payload of TypeNotify.
type notifyMsg struct {
	Candidate nodeRefMsg `json:"candidate"`
}

// MarshalWire implements wireMsg.
func (m *notifyMsg) MarshalWire(b []byte) []byte {
	return m.Candidate.MarshalWire(b)
}

// UnmarshalWire implements wireMsg.
func (m *notifyMsg) UnmarshalWire(data []byte) error {
	return m.Candidate.UnmarshalWire(data)
}

// dataMsg is the application payload of a kind=data ACCEPT_OBJECT: the
// attributes the continuous-query predicates evaluate plus the opaque record.
// A publisher encodes Attrs as an attribute section in the map's iteration
// order; the node decodes the section in place into AttrSection, never into a
// map, and matches and forwards those bytes as they are.
type dataMsg struct {
	Attrs       map[string]float64 `json:"attrs,omitempty"`
	AttrSection []byte             `json:"-"`
	Payload     []byte             `json:"payload,omitempty"`
}

// MarshalWire implements wireMsg. A decoded message re-encodes its
// AttrSection byte for byte; otherwise Attrs is encoded.
func (m *dataMsg) MarshalWire(b []byte) []byte {
	if m.AttrSection != nil {
		b = wirecodec.AppendAttrSection(b, m.AttrSection)
	} else {
		b = wirecodec.AppendAttrs(b, m.Attrs)
	}
	return wirecodec.AppendBytes(b, m.Payload)
}

// UnmarshalWire implements wireMsg. It allocates nothing: AttrSection and
// Payload alias data, and Attrs is left nil.
func (m *dataMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.AttrSection = r.AttrSection()
	m.Payload = r.Bytes()
	return r.Err()
}

// readAttrs decodes an attribute section that Reader.AttrSection accepted
// into a map, for the subscriber's Match. A name given twice keeps its last
// value.
func readAttrs(section []byte) map[string]float64 {
	r := wirecodec.NewReader(section)
	n := r.Int()
	if n == 0 {
		return nil
	}
	attrs := make(map[string]float64, n)
	for ; n > 0 && r.Err() == nil; n-- {
		k := r.String()
		attrs[k] = r.Float64()
	}
	return attrs
}

// queryState is the application payload of a kind=query ACCEPT_OBJECT and the
// per-query unit of state transfer: the cq.Query's record (binary, or the
// JSON of an earlier writer) plus the transport address match notifications
// are pushed to.
type queryState struct {
	Query      []byte `json:"query"`
	Subscriber string `json:"subscriber,omitempty"`
}

// MarshalWire implements wireMsg.
func (m *queryState) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendQueryRecord(b, m.Query)
	return wirecodec.AppendString(b, m.Subscriber)
}

// UnmarshalWire implements wireMsg. Query aliases data; a binary record is
// validated in place.
func (m *queryState) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Query = r.QueryRecord()
	m.Subscriber = r.String()
	return r.Err()
}

// childMovedMsg is the payload of TypeChildMoved.
type childMovedMsg struct {
	GroupValue uint64 `json:"groupValue"`
	GroupBits  int    `json:"groupBits"`
	Holder     string `json:"holder"`
}

// MarshalWire implements wireMsg.
func (m *childMovedMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendInt(b, m.GroupBits)
	b = wirecodec.AppendUvarint(b, m.GroupValue)
	return wirecodec.AppendString(b, m.Holder)
}

// UnmarshalWire implements wireMsg.
func (m *childMovedMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.GroupBits = r.Int()
	m.GroupValue = r.Uvarint()
	m.Holder = r.String()
	return r.Err()
}

// matchMsg is the payload of TypeMatch. Attrs is the matched packet's
// attribute section, copied byte for byte from the publisher's data payload,
// so a subscriber sees the attributes in the order the publisher wrote them.
type matchMsg struct {
	QueryID  string `json:"queryId"`
	KeyValue uint64 `json:"keyValue"`
	KeyBits  int    `json:"keyBits"`
	Attrs    []byte `json:"attrs,omitempty"`
	Payload  []byte `json:"payload,omitempty"`
	// TraceID/ParentSpan/Hop carry the sampled publish's trace context onto
	// the subscriber-delivery hop so the receiving node's span joins the
	// cross-node tree. All zero for untraced publishes and from pre-span
	// writers. Appended after the original fields per the wire-evolution
	// rule.
	TraceID    uint64 `json:"traceId,omitempty"`
	ParentSpan uint64 `json:"parentSpan,omitempty"`
	Hop        int    `json:"hop,omitempty"`
}

// MarshalWire implements wireMsg. The trace context is appended after the
// original fields (append-only evolution: an old reader ignores it).
func (m *matchMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendString(b, m.QueryID)
	b = wirecodec.AppendInt(b, m.KeyBits)
	b = wirecodec.AppendUvarint(b, m.KeyValue)
	b = wirecodec.AppendAttrSection(b, m.Attrs)
	b = wirecodec.AppendBytes(b, m.Payload)
	b = wirecodec.AppendUvarint(b, m.TraceID)
	b = wirecodec.AppendUvarint(b, m.ParentSpan)
	return wirecodec.AppendInt(b, m.Hop)
}

// UnmarshalWire implements wireMsg. Attrs and Payload alias data. A frame
// from an old writer carries no trace context; it decodes as untraced.
func (m *matchMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.QueryID = r.String()
	m.KeyBits = r.Int()
	m.KeyValue = r.Uvarint()
	m.Attrs = r.AttrSection()
	m.Payload = r.Bytes()
	m.TraceID, m.ParentSpan, m.Hop = 0, 0, 0
	if r.Err() == nil && r.Len() > 0 {
		m.TraceID = r.Uvarint()
		m.ParentSpan = r.Uvarint()
		m.Hop = r.Int()
	}
	return r.Err()
}

// replicaGroupRec is one key group's replicable state inside a replica set:
// the core.GroupSnapshot fields plus the group's serialised continuous
// queries (queryState records). It travels as a length-prefixed record inside
// replicateMsg, which keeps the append-only field-evolution rule valid for
// the nested layout.
type replicaGroupRec struct {
	GroupValue uint64   `json:"groupValue"`
	GroupBits  int      `json:"groupBits"`
	Parent     string   `json:"parent,omitempty"`
	IsRoot     bool     `json:"isRoot,omitempty"`
	Epoch      uint64   `json:"epoch,omitempty"`
	Queries    [][]byte `json:"queries,omitempty"`
}

// MarshalWire implements wireMsg.
func (m *replicaGroupRec) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendInt(b, m.GroupBits)
	b = wirecodec.AppendUvarint(b, m.GroupValue)
	b = wirecodec.AppendString(b, m.Parent)
	b = wirecodec.AppendBool(b, m.IsRoot)
	b = wirecodec.AppendUvarint(b, m.Epoch)
	b = wirecodec.AppendInt(b, len(m.Queries))
	for _, q := range m.Queries {
		b = wirecodec.AppendBytes(b, q)
	}
	return b
}

// UnmarshalWire implements wireMsg. Query entries alias data.
func (m *replicaGroupRec) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.GroupBits = r.Int()
	m.GroupValue = r.Uvarint()
	m.Parent = r.String()
	m.IsRoot = r.Bool()
	m.Epoch = r.Uvarint()
	n := r.Int()
	if r.Err() == nil && n > r.Len() {
		return fmt.Errorf("%w: %d queries in %d bytes", wirecodec.ErrInvalid, n, r.Len())
	}
	m.Queries = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Queries = append(m.Queries, r.Bytes())
	}
	return r.Err()
}

// replicateMsg is the payload of TypeReplicateKeyGroup and the reply of
// TypeRecoverKeyGroups. With Base 0 it is one node's complete replicable
// key-group state: the receiver replaces its stored set for Origin whenever
// (Incarnation, Version) is not older than the stored pair — full-state
// replacement, so a group the origin shed disappears from the replica without
// tombstones (a recovery reply carries the stored set with its delta log
// merged in). Loose carries query state the origin holds outside its engine
// (orphaned placements awaiting re-homing); on recovery it is re-placed through depth resolution rather than installed under a group.
//
// With Base > 0 it is a delta on top of exactly version Base of the same
// incarnation: Groups carry only the query records registered or
// re-subscribed since, each under the header of a group the holder stores at
// the same epoch, and Loose is empty. A delta with no groups is a heartbeat:
// it moves the holder to Version and refreshes it, nothing more.
type replicateMsg struct {
	Origin      string            `json:"origin"`
	Incarnation uint64            `json:"incarnation"`
	Version     uint64            `json:"version"`
	Groups      []replicaGroupRec `json:"groups,omitempty"`
	Loose       [][]byte          `json:"loose,omitempty"`
	// TraceID/ParentSpan/Hop carry a sampled publish's trace context onto the
	// replica-push hop when the push was triggered while handling that
	// publish, so the replica's span joins the cross-node tree. All zero for
	// untriggered (maintenance) pushes and from pre-span writers. Appended
	// after Loose per the wire-evolution rule.
	TraceID    uint64 `json:"traceId,omitempty"`
	ParentSpan uint64 `json:"parentSpan,omitempty"`
	Hop        int    `json:"hop,omitempty"`
	// Base is the version a delta push applies on; 0 (and absent, from an
	// older writer) marks the full state. Appended after Hop.
	Base uint64 `json:"base,omitempty"`
}

// MarshalWire implements wireMsg. Each group is a length-prefixed record
// sharing the replicaGroupRec encoder; Loose, the trace context and Base are
// appended after the original fields (append-only evolution).
func (m *replicateMsg) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendString(b, m.Origin)
	b = wirecodec.AppendUvarint(b, m.Incarnation)
	b = wirecodec.AppendUvarint(b, m.Version)
	b = wirecodec.AppendInt(b, len(m.Groups))
	scratch := wirecodec.GetBuf()
	for i := range m.Groups {
		scratch = m.Groups[i].MarshalWire(scratch[:0])
		b = wirecodec.AppendBytes(b, scratch)
	}
	wirecodec.PutBuf(scratch)
	b = wirecodec.AppendInt(b, len(m.Loose))
	for _, q := range m.Loose {
		b = wirecodec.AppendBytes(b, q)
	}
	b = wirecodec.AppendUvarint(b, m.TraceID)
	b = wirecodec.AppendUvarint(b, m.ParentSpan)
	b = wirecodec.AppendInt(b, m.Hop)
	return wirecodec.AppendUvarint(b, m.Base)
}

// UnmarshalWire implements wireMsg. Nested byte fields alias data. A frame
// from an old writer carries no Loose section, trace context or Base; they
// decode empty.
func (m *replicateMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Origin = r.String()
	m.Incarnation = r.Uvarint()
	m.Version = r.Uvarint()
	n := r.Int()
	if r.Err() == nil && n > r.Len() {
		return fmt.Errorf("%w: %d replica groups in %d bytes", wirecodec.ErrInvalid, n, r.Len())
	}
	m.Groups = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := r.Bytes()
		if r.Err() != nil {
			break
		}
		var g replicaGroupRec
		if err := g.UnmarshalWire(rec); err != nil {
			return err
		}
		m.Groups = append(m.Groups, g)
	}
	m.Loose = nil
	if r.Err() == nil && r.Len() > 0 {
		k := r.Int()
		if r.Err() == nil && k > r.Len() {
			return fmt.Errorf("%w: %d loose queries in %d bytes", wirecodec.ErrInvalid, k, r.Len())
		}
		for i := 0; i < k && r.Err() == nil; i++ {
			m.Loose = append(m.Loose, r.Bytes())
		}
	}
	m.TraceID, m.ParentSpan, m.Hop, m.Base = 0, 0, 0, 0
	if r.Err() == nil && r.Len() > 0 {
		m.TraceID = r.Uvarint()
		m.ParentSpan = r.Uvarint()
		m.Hop = r.Int()
	}
	if r.Err() == nil && r.Len() > 0 {
		m.Base = r.Uvarint()
	}
	if err := r.Err(); err != nil {
		return err
	}
	return checkDelta(m.Base, m.Version, len(m.Loose))
}

// checkDelta rejects a delta push (base > 0) that does not move past its base
// or carries loose records.
func checkDelta(base, version uint64, loose int) error {
	if base > 0 && (version <= base || loose > 0) {
		return fmt.Errorf("%w: delta on base %d at version %d with %d loose records", wirecodec.ErrInvalid, base, version, loose)
	}
	return nil
}

// replicateHeader is what a replica holder reads of a replicateMsg at
// receipt: enough to order the push against the stored copy and trace it,
// and the raw group records a delta appends to the stored set's log.
type replicateHeader struct {
	Origin      []byte // aliases the scanned payload
	Incarnation uint64
	Version     uint64
	Base        uint64
	Groups      int
	Section     []byte // the length-prefixed group records, aliasing the payload
	Trace       spanRef
}

// scanReplicate validates a replicateMsg without decoding it: it accepts
// exactly the payloads replicateMsg.UnmarshalWire accepts, walking every
// group and query record for bounds, but allocates nothing and returns only
// the header.
func scanReplicate(data []byte) (replicateHeader, error) {
	var h replicateHeader
	r := wirecodec.NewReader(data)
	h.Origin = r.Bytes()
	h.Incarnation = r.Uvarint()
	h.Version = r.Uvarint()
	h.Groups = r.Int()
	if r.Err() == nil && h.Groups > r.Len() {
		return h, fmt.Errorf("%w: %d replica groups in %d bytes", wirecodec.ErrInvalid, h.Groups, r.Len())
	}
	start := len(data) - r.Len()
	for i := 0; i < h.Groups && r.Err() == nil; i++ {
		rec := r.Bytes()
		if r.Err() != nil {
			break
		}
		if err := scanReplicaGroup(rec); err != nil {
			return h, err
		}
	}
	h.Section = data[start : len(data)-r.Len()]
	loose := 0
	if r.Err() == nil && r.Len() > 0 {
		loose = r.Int()
		if r.Err() == nil && loose > r.Len() {
			return h, fmt.Errorf("%w: %d loose queries in %d bytes", wirecodec.ErrInvalid, loose, r.Len())
		}
		for i := 0; i < loose && r.Err() == nil; i++ {
			r.Bytes()
		}
	}
	if r.Err() == nil && r.Len() > 0 {
		h.Trace = spanRef{TraceID: r.Uvarint(), Parent: r.Uvarint(), Hop: r.Int()}
	}
	if r.Err() == nil && r.Len() > 0 {
		h.Base = r.Uvarint()
	}
	if err := r.Err(); err != nil {
		return h, err
	}
	return h, checkDelta(h.Base, h.Version, loose)
}

// scanReplicaGroup is replicaGroupRec.UnmarshalWire's validation without the
// decode.
func scanReplicaGroup(data []byte) error {
	r := wirecodec.NewReader(data)
	r.Int()
	r.Uvarint()
	r.Bytes()
	r.Bool()
	r.Uvarint()
	n := r.Int()
	if r.Err() == nil && n > r.Len() {
		return fmt.Errorf("%w: %d queries in %d bytes", wirecodec.ErrInvalid, n, r.Len())
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		r.Bytes()
	}
	return r.Err()
}

// replicateAck is the reply to TypeReplicateKeyGroup: the (Incarnation,
// Version) of the set the holder stores for the pushing origin once the push
// is handled, zero when it stores none, and Delta, which every holder that
// applies pushes with Base > 0 sets. Each field trails the reply's older
// layouts: a holder that predates the version fields replies empty, which
// decodes as (0, 0) and matches no origin's incarnation, and one that
// predates Base omits Delta and would store a delta as its whole set. An
// origin sends either kind of older holder full pushes only.
type replicateAck struct {
	Incarnation uint64 `json:"incarnation"`
	Version     uint64 `json:"version"`
	Delta       bool   `json:"delta,omitempty"`
}

// MarshalWire implements wireMsg.
func (m *replicateAck) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendUvarint(b, m.Incarnation)
	b = wirecodec.AppendUvarint(b, m.Version)
	return wirecodec.AppendBool(b, m.Delta)
}

// UnmarshalWire implements wireMsg. An empty reply decodes as (0, 0).
func (m *replicateAck) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Incarnation, m.Version, m.Delta = 0, 0, false
	if r.Err() == nil && r.Len() > 0 {
		m.Incarnation = r.Uvarint()
		m.Version = r.Uvarint()
	}
	if r.Err() == nil && r.Len() > 0 {
		m.Delta = r.Bool()
	}
	return r.Err()
}

// recoverMsg is the request payload of TypeRecoverKeyGroups.
type recoverMsg struct {
	Origin string `json:"origin"`
}

// MarshalWire implements wireMsg.
func (m *recoverMsg) MarshalWire(b []byte) []byte {
	return wirecodec.AppendString(b, m.Origin)
}

// UnmarshalWire implements wireMsg.
func (m *recoverMsg) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Origin = r.String()
	return r.Err()
}

// marshalMsg encodes msg into a pooled buffer. The caller must hand the
// buffer back with wirecodec.PutBuf after the transport call returns.
func marshalMsg(msg wireMsg) []byte {
	return msg.MarshalWire(wirecodec.GetBuf())
}
