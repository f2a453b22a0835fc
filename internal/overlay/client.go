package overlay

import (
	"fmt"
	"sync/atomic"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/wirecodec"
)

// Match is one continuous-query match pushed to the subscribing client. It
// owns one copy of the packet's payload and attribute section, so it stays
// valid after the push's frame buffer is recycled.
type Match struct {
	// QueryID is the matched query.
	QueryID string
	// Key is the identifier key of the matching data packet.
	Key bitkey.Key
	// Payload is the packet's opaque payload. The attribute section is
	// stored in its spare capacity: appending to Payload overwrites it, so
	// read Attrs first.
	Payload []byte
	// attrsLen is the length of the attribute section at the end of
	// Payload's capacity. Keeping the section there rather than in a slice
	// of its own keeps Match at four words, and the client's match channel
	// buffers matchBuffer of them.
	attrsLen int
}

// Attrs decodes the packet's attributes, as the publisher wrote them (the
// node forwards the section verbatim), into a fresh map; nil when the packet
// carried none. A name given twice keeps its last value.
func (m Match) Attrs() map[string]float64 {
	full := m.Payload[:cap(m.Payload)]
	if m.attrsLen > len(full) {
		return nil
	}
	return readAttrs(full[len(full)-m.attrsLen:])
}

// matchBuffer is the client-side match channel capacity; deliveries beyond it
// are dropped (and counted) rather than blocking the overlay's push path.
const matchBuffer = 1024

// Client is the CLASH client side: it resolves the depth of identifier keys
// by probing through the overlay (paper §6's modified binary search), caches
// (group → server) bindings in a core.Router, publishes data packets
// (individually or in batched frames), and registers continuous queries whose
// matches are pushed back to it.
//
// Client is safe for concurrent use; the router cache is shared across
// goroutines so one connection's redirect teaches all the others.
type Client struct {
	tr      Transport
	keyBits int
	space   chord.Space
	seeds   []string
	router  *core.Router

	lastDepth atomic.Int64
	seedIdx   atomic.Int64
	drops     atomic.Int64
	matches   chan Match

	// traceEvery samples every Nth delivered object for request tracing
	// (SetTraceEvery; 0 disables). traceSalt distinguishes this client's
	// trace IDs from other publishers'.
	traceEvery atomic.Int64
	traceSeq   atomic.Uint64
	traceSalt  uint64
}

// NewClient creates a client that reaches the overlay through the given seed
// node addresses (any live overlay node works; more seeds add redundancy).
// The client's transport endpoint receives match notifications.
func NewClient(tr Transport, keyBits int, space chord.Space, seeds ...string) (*Client, error) {
	if keyBits < 1 || keyBits > bitkey.MaxBits {
		return nil, fmt.Errorf("%w: key bits %d", bitkey.ErrBadLength, keyBits)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("overlay: client needs at least one seed address")
	}
	c := &Client{
		tr:        tr,
		keyBits:   keyBits,
		space:     space,
		seeds:     append([]string(nil), seeds...),
		router:    core.NewRouter(keyBits),
		matches:   make(chan Match, matchBuffer),
		traceSalt: uint64(space.HashString(tr.Addr())) << 32,
	}
	tr.SetHandler(c.handle)
	return c, nil
}

// SetTraceEvery samples every Nth delivered object for request tracing: the
// sampled object carries a non-zero trace ID in its ACCEPT_OBJECT frames, and
// every server on its path records per-stage timings under the ID (surfaced
// by the hub's /traces/sample). n <= 0 disables sampling (the default).
func (c *Client) SetTraceEvery(n int) { c.traceEvery.Store(int64(n)) }

// nextTraceID draws the trace ID for one delivered object: zero (untraced)
// except on every traceEvery-th call.
func (c *Client) nextTraceID() uint64 {
	every := c.traceEvery.Load()
	if every <= 0 {
		return 0
	}
	seq := c.traceSeq.Add(1)
	if seq%uint64(every) != 0 {
		return 0
	}
	id := c.traceSalt ^ seq
	if id == 0 {
		id = 1
	}
	return id
}

// Matches returns the channel match notifications are delivered on.
func (c *Client) Matches() <-chan Match { return c.matches }

// Drops returns how many match notifications were dropped because the match
// channel was full.
func (c *Client) Drops() int64 { return c.drops.Load() }

// Router exposes the client's route cache (tests assert on learned bindings).
func (c *Client) Router() *core.Router { return c.router }

// Close closes the client's transport endpoint.
func (c *Client) Close() error { return c.tr.Close() }

// handle receives pushed match notifications.
func (c *Client) handle(msgType string, payload []byte) ([]byte, error) {
	if msgType != TypeMatch {
		return nil, fmt.Errorf("unexpected message type %q", msgType)
	}
	var m matchMsg
	if err := m.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	key, err := bitkey.New(m.KeyValue, m.KeyBits)
	if err != nil {
		return nil, err
	}
	// The decoded payload and section alias the transport's pooled request
	// buffer; the Match escapes to the application, so it owns one copy of
	// both: the payload, then the section in its spare capacity.
	match := Match{QueryID: m.QueryID, Key: key, attrsLen: len(m.Attrs)}
	if n := len(m.Payload) + len(m.Attrs); n > 0 {
		buf := append(append(make([]byte, 0, n), m.Payload...), m.Attrs...)
		match.Payload = buf[:len(m.Payload)]
	}
	select {
	case c.matches <- match:
	default:
		c.drops.Add(1)
	}
	return nil, nil
}

// lookupOwner resolves the overlay node responsible for a virtual key by
// asking a seed node to run the chord lookup. Seeds are rotated on failure.
func (c *Client) lookupOwner(vk bitkey.Key) (string, error) {
	req := findSuccessorMsg{ID: uint64(c.space.HashBytes(vk.Bytes()))}
	start := int(c.seedIdx.Load())
	var lastErr error
	for i := 0; i < len(c.seeds); i++ {
		seed := c.seeds[(start+i)%len(c.seeds)]
		var ref nodeRefMsg
		if err := call(c.tr, seed, TypeFindSuccessor, &req, &ref); err != nil {
			lastErr = err
			c.seedIdx.Store(int64((start + i + 1) % len(c.seeds)))
			continue
		}
		return ref.Addr, nil
	}
	return "", fmt.Errorf("overlay: no seed reachable: %w", lastErr)
}

// decodeAccept converts a wire reply into the core result.
func decodeAccept(reply *core.AcceptObjectReplyMsg) (core.AcceptObjectResult, error) {
	res := core.AcceptObjectResult{
		Status:       reply.Status,
		CorrectDepth: reply.CorrectDepth,
		DMin:         reply.DMin,
	}
	switch reply.Status {
	case core.StatusOK, core.StatusOKCorrected, core.StatusIncorrectDepth:
	default:
		return core.AcceptObjectResult{}, fmt.Errorf("overlay: unknown reply status %d (%s)", reply.Status, reply.Error)
	}
	if reply.GroupBits > 0 || reply.GroupValue != 0 {
		prefix, err := bitkey.New(reply.GroupValue, reply.GroupBits)
		if err != nil {
			return core.AcceptObjectResult{}, err
		}
		res.Group = bitkey.NewGroup(prefix)
	}
	return res, nil
}

// acceptObject sends one ACCEPT_OBJECT request and decodes the reply.
// traceID, when non-zero, marks the object as sampled for request tracing;
// parentSpan and hop are the span context of the delivery so far (the
// previous probe's server span and how many probes preceded this one), which
// the contacted server chains its own span under. It encodes and decodes the
// concrete messages directly and returns the reply by value: passing them
// through call's wireMsg interface would heap-allocate both on every probe.
// The reply buffer is recycled once decoded.
func (c *Client) acceptObject(addr string, key bitkey.Key, depth int, kind core.ObjectKind, payload []byte, traceID, parentSpan uint64, hop int) (core.AcceptObjectResult, core.AcceptObjectReplyMsg, error) {
	req := core.AcceptObjectMsg{
		KeyValue:   key.Value,
		KeyBits:    key.Bits,
		Depth:      depth,
		Kind:       kind,
		Payload:    payload,
		TraceID:    traceID,
		ParentSpan: parentSpan,
		Hop:        hop,
	}
	buf := req.MarshalWire(wirecodec.GetBuf())
	data, err := c.tr.Call(addr, TypeAcceptObject, buf)
	wirecodec.PutBuf(buf)
	if err != nil {
		return core.AcceptObjectResult{}, core.AcceptObjectReplyMsg{}, err
	}
	var reply core.AcceptObjectReplyMsg
	err = reply.UnmarshalWire(data)
	// The decode copied every string out of the reply, so its pooled buffer
	// goes back at once.
	wirecodec.PutBuf(data)
	if err != nil {
		return core.AcceptObjectResult{}, core.AcceptObjectReplyMsg{}, fmt.Errorf("overlay: decode %s reply: %w", TypeAcceptObject, err)
	}
	res, err := decodeAccept(&reply)
	if err != nil {
		return core.AcceptObjectResult{}, core.AcceptObjectReplyMsg{}, err
	}
	return res, reply, nil
}

// PublishResult summarises one delivered object. Publish, Register and
// PublishBatch return it by value, so a delivery allocates no result.
type PublishResult struct {
	// Server is the overlay node that accepted the object.
	Server string
	// Group is the active key group that stores it.
	Group bitkey.Group
	// Probes is the number of ACCEPT_OBJECT probes the delivery took (1 on a
	// cache hit).
	Probes int
	// Matches are the IDs of continuous queries the packet matched.
	Matches []string
}

// deliver places one object: it tries the cached (group → server) binding
// first and falls back to a full depth resolution on a miss or redirect. The
// object payload rides on every probe and takes effect exactly once, on the
// probe the responsible server answers with OK.
func (c *Client) deliver(key bitkey.Key, kind core.ObjectKind, payload []byte) (PublishResult, error) {
	if key.Bits != c.keyBits {
		return PublishResult{}, fmt.Errorf("%w: key %d bits, want %d", core.ErrBadKey, key.Bits, c.keyBits)
	}
	// One trace ID covers the whole delivery: every probe of a sampled
	// object carries it, so the resolve hops and the final landing are
	// recorded under the same ID. The span context chains across probes —
	// each probe carries the previous server's span ID (echoed in its reply)
	// as parent and the probe count as hop, so the servers' spans form one
	// path rooted at the first contact's ingress span.
	traceID := c.nextTraceID()
	var parentSpan uint64
	hop := 0
	chain := func(reply core.AcceptObjectReplyMsg) {
		hop++
		if reply.SpanID != 0 {
			parentSpan = reply.SpanID
		}
	}

	// Fast path: cached binding (paper §6 — "simply caches this server
	// value").
	if g, srv, ok := c.router.Route(key); ok {
		res, reply, err := c.acceptObject(string(srv), key, g.Depth(), kind, payload, traceID, parentSpan, hop)
		switch {
		case err != nil && !IsRemote(err):
			// The cached server is gone; evict everything it owned.
			c.router.ForgetServer(srv)
		case err != nil:
			c.router.Forget(g)
		case res.Status == core.StatusOK || res.Status == core.StatusOKCorrected:
			c.router.Learn(res.Group, srv)
			c.lastDepth.Store(int64(res.CorrectDepth))
			return PublishResult{Server: string(srv), Group: res.Group, Probes: 1, Matches: reply.Matches}, nil
		default:
			// INCORRECT_DEPTH: the cached group moved or changed depth.
			c.router.Forget(g)
			chain(reply)
		}
	}

	// Slow path: the modified binary search over the depth, probing through
	// the DHT.
	var (
		lastAddr    string
		lastMatches []string
	)
	probe := func(d int) (core.AcceptObjectResult, error) {
		prefix, err := key.Prefix(d)
		if err != nil {
			return core.AcceptObjectResult{}, err
		}
		vk, err := bitkey.NewGroup(prefix).VirtualKey(c.keyBits)
		if err != nil {
			return core.AcceptObjectResult{}, err
		}
		addr, err := c.lookupOwner(vk)
		if err != nil {
			return core.AcceptObjectResult{}, err
		}
		res, reply, err := c.acceptObject(addr, key, d, kind, payload, traceID, parentSpan, hop)
		if err != nil {
			return core.AcceptObjectResult{}, err
		}
		chain(reply)
		if res.Status == core.StatusOK || res.Status == core.StatusOKCorrected {
			lastAddr = addr
			lastMatches = reply.Matches
		}
		return res, nil
	}
	rr, err := core.ResolveDepth(c.keyBits, int(c.lastDepth.Load()), probe)
	if err != nil {
		return PublishResult{}, err
	}
	c.router.Learn(rr.Group, core.ServerID(lastAddr))
	c.lastDepth.Store(int64(rr.Depth))
	return PublishResult{Server: lastAddr, Group: rr.Group, Probes: rr.Probes, Matches: lastMatches}, nil
}

// Publish delivers one data packet to the overlay node responsible for its
// identifier key and returns where it landed and which continuous queries it
// matched.
func (c *Client) Publish(key bitkey.Key, attrs map[string]float64, payload []byte) (PublishResult, error) {
	// Direct call rather than marshalMsg, which would box msg into wireMsg.
	msg := dataMsg{Attrs: attrs, Payload: payload}
	data := msg.MarshalWire(wirecodec.GetBuf())
	defer wirecodec.PutBuf(data)
	return c.deliver(key, core.ObjectData, data)
}

// Register installs a continuous query on the overlay node responsible for
// the query's identifier key. Matches are pushed to this client's transport
// address and surface on Matches().
func (c *Client) Register(q cq.Query) (PublishResult, error) {
	ik, err := q.IdentifierKey(c.keyBits)
	if err != nil {
		return PublishResult{}, err
	}
	rec, err := q.AppendWire(wirecodec.GetBuf())
	defer wirecodec.PutBuf(rec)
	if err != nil {
		return PublishResult{}, err
	}
	// Direct call rather than marshalMsg, which would box st into wireMsg.
	st := queryState{Query: rec, Subscriber: c.tr.Addr()}
	payload := st.MarshalWire(wirecodec.GetBuf())
	defer wirecodec.PutBuf(payload)
	return c.deliver(ik, core.ObjectQuery, payload)
}
