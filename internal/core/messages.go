package core

// Wire payloads for the CLASH protocol. The overlay (internal/overlay) names
// each message with its own Type* string and serialises these payloads with
// the hand-rolled binary codec in wire.go (MarshalWire/UnmarshalWire); the
// discrete-event simulator runs that same overlay and counts its calls per
// message type to account for signaling overhead (paper §6.3). Keeping the
// payloads here makes the protocol surface visible in one place.
//
// Identifier keys and key groups travel as (value, bits) pairs — the binary
// representation internal/bitkey uses natively — rather than the binary-digit
// strings of the original JSON protocol, so the hot encode path never renders
// or parses strings.

// AcceptObjectMsg is the payload of ACCEPT_OBJECT.
type AcceptObjectMsg struct {
	// KeyValue and KeyBits are the full N-bit identifier key (right-aligned
	// value + length, the bitkey.Key representation).
	KeyValue uint64 `json:"keyValue"`
	KeyBits  int    `json:"keyBits"`
	// Depth is the client's estimated depth.
	Depth int `json:"depth"`
	// Kind distinguishes data packets from query registrations.
	Kind ObjectKind `json:"kind"`
	// Payload is the opaque application object (a serialised query or data
	// record).
	Payload []byte `json:"payload,omitempty"`
	// TraceID is the request-tracing context: a non-zero value marks this
	// object as sampled, and every server on its path records per-stage
	// timings under the ID (overlay trace plumbing, clashd /traces/sample).
	// Zero means untraced. Appended after the original fields per the
	// wire-evolution rule, so pre-trace peers interoperate: an old decoder
	// ignores the trailing field, an old encoder yields TraceID 0.
	TraceID uint64 `json:"traceId,omitempty"`
	// ParentSpan identifies the sender-side span this request descends from,
	// so servers can link their own spans into one cross-node trace tree
	// (clashd /traces/spans, clashtop assembly). Zero when the sender is the
	// trace root or the object is untraced. Appended after TraceID per the
	// wire-evolution rule: TraceID-era peers decode it as 0 and still
	// interoperate.
	ParentSpan uint64 `json:"parentSpan,omitempty"`
	// Hop counts redirection hops already taken by this object (0 at the
	// client). Servers use it to bound pathological forwarding and record it
	// in their spans. Appended with ParentSpan.
	Hop int `json:"hop,omitempty"`
}

// ObjectKind distinguishes the two object classes the paper stores in the
// overlay: transient data packets and long-lived continuous queries.
type ObjectKind int

// Object kinds.
const (
	ObjectData ObjectKind = iota + 1
	ObjectQuery
)

// AcceptObjectReplyMsg is the payload of the ACCEPT_OBJECT reply.
type AcceptObjectReplyMsg struct {
	// Status is the numeric Status (StatusOK / StatusOKCorrected /
	// StatusIncorrectDepth); 0 marks a per-item failure inside a batch reply,
	// with Error carrying the text.
	Status       Status `json:"status"`
	GroupValue   uint64 `json:"groupValue,omitempty"`
	GroupBits    int    `json:"groupBits,omitempty"`
	CorrectDepth int    `json:"correctDepth,omitempty"`
	DMin         int    `json:"dmin,omitempty"`
	// Matches carries the IDs of continuous queries matched by a data packet
	// (filled by the overlay's query engine).
	Matches []string `json:"matches,omitempty"`
	// Error is the per-item failure text inside a batch reply (Status 0).
	Error string `json:"error,omitempty"`
	// SpanID echoes the serving node's span identifier for this request when
	// the object was sampled, letting the caller parent its next probe (or
	// its ingress record) under the span the server just recorded. Zero from
	// pre-span peers or for untraced objects. Appended after the original
	// fields per the wire-evolution rule.
	SpanID uint64 `json:"spanId,omitempty"`
}

// AcceptBatchMsg is the payload of ACCEPT_BATCH: a vector of ACCEPT_OBJECT
// bodies processed against one server read-snapshot load.
type AcceptBatchMsg struct {
	Objects []AcceptObjectMsg `json:"objects"`
}

// AcceptBatchReplyMsg is the reply to ACCEPT_BATCH: one AcceptObjectReplyMsg
// per object, in request order.
type AcceptBatchReplyMsg struct {
	Replies []AcceptObjectReplyMsg `json:"replies"`
}

// AcceptKeyGroupMsg is the payload of ACCEPT_KEYGROUP.
type AcceptKeyGroupMsg struct {
	GroupValue uint64 `json:"groupValue"`
	GroupBits  int    `json:"groupBits"`
	Parent     string `json:"parent"`
	// Queries carries the serialised continuous queries whose keys fall in
	// the transferred group (the application state migrated at split time).
	Queries [][]byte `json:"queries,omitempty"`
	// Epoch is the group's ownership epoch after this transfer (0 when the
	// sender has no epoch information). The receiving server drops delayed
	// duplicates carrying an older epoch instead of regressing the entry.
	// Appended after the original fields per the wire-evolution rule.
	Epoch uint64 `json:"epoch,omitempty"`
}

// LoadReportMsg is the payload of the periodic leaf→parent load report.
type LoadReportMsg struct {
	GroupValue uint64  `json:"groupValue"`
	GroupBits  int     `json:"groupBits"`
	Load       float64 `json:"load"`
	From       string  `json:"from"`
}

// ReleaseKeyGroupMsg is the payload of RELEASE_KEYGROUP.
type ReleaseKeyGroupMsg struct {
	GroupValue uint64 `json:"groupValue"`
	GroupBits  int    `json:"groupBits"`
	// Parent identifies the reclaiming server so the child can verify the
	// request.
	Parent string `json:"parent"`
}

// ReleaseKeyGroupReplyMsg returns the child's state for the reclaimed group.
type ReleaseKeyGroupReplyMsg struct {
	GroupValue uint64   `json:"groupValue"`
	GroupBits  int      `json:"groupBits"`
	Queries    [][]byte `json:"queries,omitempty"`
	OK         bool     `json:"ok"`
	Error      string   `json:"error,omitempty"`
	// Gone reports that the server has no entry for the group at all — it
	// released it earlier (e.g. the reply to a previous RELEASE_KEYGROUP was
	// lost in transit) or re-homed it. The reclaiming parent may complete
	// the merge without state.
	Gone bool `json:"gone,omitempty"`
}
