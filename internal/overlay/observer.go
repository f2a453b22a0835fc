package overlay

import "sync/atomic"

// Control-plane observation: a Node reports protocol events (splits, merges,
// recoveries, ring changes, suspicion verdicts) and request-trace timings to
// an installed Observer. The hub (internal/hub) implements Observer and fans
// the stream out to /events subscribers and the trace store; the simulator
// installs a counting observer to assert event/counter consistency. With no
// observer installed (the default) every emit site is a nil check — the data
// and maintenance paths pay nothing.

// Event types published on the node's event stream.
const (
	// EventRingChange reports a successor-list change (ring churn).
	EventRingChange = "ring-change"
	// EventSplit reports a key-group split executed on this node.
	EventSplit = "split"
	// EventSplitExhausted reports an overload split that changed nothing:
	// every right child on the group's spine mapped back to this node. The
	// group is not tried again until the node's successor list changes.
	EventSplitExhausted = "split-exhausted"
	// EventMerge reports a consolidation completed by this node (the parent).
	EventMerge = "merge"
	// EventRecovery reports replica promotion (a dead peer's groups restored
	// here) or a restart pull of the node's own pre-crash state.
	EventRecovery = "recovery"
	// EventSuspicion reports a failure-detector verdict transition for a peer
	// (suspect, dead, or cleared back to ok).
	EventSuspicion = "suspicion-verdict"
	// EventDrain reports an admin drain pass moving this node's groups to its
	// successor.
	EventDrain = "drain"
)

// Event is one protocol event. Node fills Node and TimeMs at emit time; Seq
// is assigned by the consumer's buffer (the hub's ring), not the node.
type Event struct {
	Seq    uint64 `json:"seq,omitempty"`
	TimeMs int64  `json:"timeMs"`
	Type   string `json:"type"`
	Node   string `json:"node"`
	// Group is the key group involved (splits, merges, drains).
	Group string `json:"group,omitempty"`
	// Peer is the other node involved (suspicion verdicts, recovery origins).
	Peer string `json:"peer,omitempty"`
	// Detail is a human-readable supplement (counts, verdicts, targets).
	Detail string `json:"detail,omitempty"`
}

// Trace stages recorded along a sampled publish path, in path order.
const (
	// TraceStageRoute is the server state-machine time for an ACCEPT_OBJECT
	// probe that landed (OK / OK_CORRECTED).
	TraceStageRoute = "route"
	// TraceStageResolve is the state-machine time of a probe answered
	// INCORRECT_DEPTH — the split-resolution hops of the modified binary
	// search.
	TraceStageResolve = "resolve"
	// TraceStageMatch is the continuous-query engine match time for a data
	// packet.
	TraceStageMatch = "match"
	// TraceStageDeliver is the time of one match push to a subscriber: a
	// round trip on the in-memory fabric, only the frame write on TCP (where
	// a match is a one-way notification).
	TraceStageDeliver = "deliver"
)

// TraceStage is one timed stage of a sampled request.
type TraceStage struct {
	Stage  string `json:"stage"`
	Micros int64  `json:"micros"`
}

// Hop kinds recorded in spans along a sampled publish's cross-node path.
const (
	// HopIngress is the first server an object's delivery contacts (the probe
	// arrived with no parent span) — the root of the trace's span tree,
	// whatever the probe's outcome.
	HopIngress = "ingress"
	// HopRouteForward is a later probe that landed (OK / OK_CORRECTED) on the
	// responsible server.
	HopRouteForward = "route-forward"
	// HopResolve is a later probe answered INCORRECT_DEPTH — one
	// split-resolution hop of the modified binary search.
	HopResolve = "resolve"
	// HopCQMatch is the continuous-query engine match on the landing server.
	HopCQMatch = "cq-match"
	// HopReplicaPush is a replica snapshot push a sampled registration
	// triggered, recorded by the receiving successor.
	HopReplicaPush = "replica-push"
	// HopDeliver is one match notification push to a subscriber, recorded by
	// the sending server (subscribers are client endpoints, not nodes). Its
	// network time is the round trip on the in-memory fabric and the frame
	// write on TCP.
	HopDeliver = "subscriber-deliver"
)

// Span is one node's hop record along a sampled publish's path. SpanID is
// unique per node (a node-salted counter); Parent references the span this
// hop descends from — on the wire for cross-node hops, in-process for
// same-node children — so a trace's spans from every node's ring assemble
// into one tree rooted at the ingress hop (Parent 0). The per-stage timings
// split the hop's cost: Codec is payload decode, Handler is state-machine /
// engine time, Network is onward call round trips charged to this hop, and
// Queue is in-node wait before deferred work ran (async fan-out paths; 0 for
// hops executed synchronously in their frame handler).
type Span struct {
	TraceID uint64 `json:"traceId"`
	SpanID  uint64 `json:"spanId"`
	Parent  uint64 `json:"parent,omitempty"`
	// Hop is the network hop count from the publishing client (0 at the
	// client's first probe).
	Hop    int    `json:"hop"`
	Kind   string `json:"kind"`
	Node   string `json:"node"`
	TimeMs int64  `json:"timeMs"`
	// Detail is a human-readable supplement (landing group, match counts,
	// push targets).
	Detail        string `json:"detail,omitempty"`
	QueueMicros   int64  `json:"queueMicros"`
	CodecMicros   int64  `json:"codecMicros"`
	HandlerMicros int64  `json:"handlerMicros"`
	NetworkMicros int64  `json:"networkMicros"`
}

// spanRef is the in-process trace context a handler threads to the side
// effects it triggers (match pushes, replica pushes): which trace, which
// parent span, and the next hop count.
type spanRef struct {
	TraceID uint64
	Parent  uint64
	Hop     int
}

// TraceRecord is the server-side record of one sampled ACCEPT_OBJECT: where
// it landed and how long each stage took. Stages along the path of one
// object on one node; the per-stage histograms aggregate across records.
type TraceRecord struct {
	TraceID uint64 `json:"traceId"`
	TimeMs  int64  `json:"timeMs"`
	Node    string `json:"node"`
	Key     string `json:"key"`
	Group   string `json:"group,omitempty"`
	// Status is the numeric accept status (core.StatusOK etc.).
	Status int `json:"status"`
	// Matches is how many continuous queries a data packet matched.
	Matches int          `json:"matches,omitempty"`
	Stages  []TraceStage `json:"stages"`
}

// Observer receives a node's event stream and trace records. Implementations
// must be safe for concurrent use and must not block: emit sites sit on the
// data path and inside maintenance passes.
type Observer interface {
	// OnEvent receives one protocol event.
	OnEvent(Event)
	// OnTrace receives the completed record of one sampled request.
	OnTrace(TraceRecord)
	// OnTraceStage receives one stage observation (also contained in trace
	// records; reported separately so per-stage histograms don't require
	// record parsing, and for async stages like deliver that complete after
	// the record was cut).
	OnTraceStage(stage string, micros int64)
	// OnSpan receives one hop span of a sampled publish's cross-node path.
	OnSpan(Span)
}

// obsHolder wraps the interface for atomic.Pointer storage.
type obsHolder struct{ o Observer }

// observerRef is the node's observer slot (atomic: SetObserver may race the
// data path).
type observerRef struct {
	p atomic.Pointer[obsHolder]
}

func (r *observerRef) set(o Observer) {
	if o == nil {
		r.p.Store(nil)
		return
	}
	r.p.Store(&obsHolder{o: o})
}

func (r *observerRef) get() Observer {
	if h := r.p.Load(); h != nil {
		return h.o
	}
	return nil
}

// SetObserver installs (or, with nil, removes) the node's observer.
func (n *Node) SetObserver(o Observer) { n.obs.set(o) }

// emit publishes one event, stamping the node identity and clock. No-op
// without an observer.
func (n *Node) emit(ev Event) {
	o := n.obs.get()
	if o == nil {
		return
	}
	ev.Node = n.Addr()
	ev.TimeMs = n.cfg.Clock.Now().UnixMilli()
	o.OnEvent(ev)
}

// nextSpanID draws a node-unique span identifier: the node's identity salt
// XOR a sequence number, the same scheme the client uses for trace IDs, so
// spans minted by different nodes cannot collide within a trace.
func (n *Node) nextSpanID() uint64 {
	id := n.spanSalt ^ n.spanSeq.Add(1)
	if id == 0 {
		id = 1
	}
	return id
}

// emitSpan publishes one hop span to o, stamping the node identity and
// clock.
func (n *Node) emitSpan(o Observer, sp Span) {
	sp.Node = n.Addr()
	sp.TimeMs = n.cfg.Clock.Now().UnixMilli()
	o.OnSpan(sp)
}
