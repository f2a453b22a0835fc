package overlay

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/wirecodec"
)

// handle is the node's inbound request dispatcher (installed on the
// transport by NewNode). Payloads are decoded with the binary wire codec;
// only the status snapshot stays JSON (it is a human-facing document).
func (n *Node) handle(msgType string, payload []byte) ([]byte, error) {
	switch msgType {
	case TypeFindSuccessor:
		return n.handleFindSuccessor(payload)
	case TypePredecessor:
		ref := refToMsg(n.chord.PredecessorRef())
		return marshalMsg(&ref), nil
	case TypeSuccessor:
		ref := refToMsg(n.chord.Successor())
		return marshalMsg(&ref), nil
	case TypeNotify:
		return n.handleNotify(payload)
	case TypePing:
		return nil, nil
	case TypeAcceptObject:
		return n.handleAcceptObject(payload)
	case TypeAcceptBatch:
		return n.handleAcceptBatch(payload)
	case TypeAcceptKeyGroup:
		return n.handleAcceptKeyGroup(payload)
	case TypeLoadReport:
		return n.handleLoadReport(payload)
	case TypeReleaseKeyGroup:
		return n.handleReleaseKeyGroup(payload)
	case TypeChildMoved:
		return n.handleChildMoved(payload)
	case TypeReplicateKeyGroup:
		return n.handleReplicate(payload)
	case TypeRecoverKeyGroups:
		return n.handleRecoverKeyGroups(payload)
	case TypeTopology:
		return n.handleTopology(payload)
	case TypeStatus:
		return json.Marshal(n.Status())
	default:
		return nil, fmt.Errorf("unknown message type %q", msgType)
	}
}

func (n *Node) handleFindSuccessor(payload []byte) ([]byte, error) {
	var req findSuccessorMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	ref, err := n.chord.FindSuccessor(chord.ID(req.ID))
	if err != nil {
		return nil, err
	}
	msg := refToMsg(ref)
	return marshalMsg(&msg), nil
}

func (n *Node) handleNotify(payload []byte) ([]byte, error) {
	var req notifyMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	n.chord.Notify(msgToRef(req.Candidate))
	return nil, nil
}

// handleAcceptObject implements the server side of ACCEPT_OBJECT for both
// object kinds: data packets are metered and matched against the stored
// continuous queries (with async match push to subscribers); query
// registrations are installed into the engine. Both only take effect when the
// depth resolution has landed on the right server (status OK / OK_CORRECTED).
//
//clash:hotpath
func (n *Node) handleAcceptObject(payload []byte) ([]byte, error) {
	// The codec stage can only be attributed after the decode reveals the
	// trace ID, so the clock is read up front whenever an observer is
	// installed; without one the decode path stays untouched.
	var codecStart time.Time
	if n.obs.get() != nil {
		codecStart = n.cfg.Clock.Now()
	}
	var req core.AcceptObjectMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	var codecMicros int64
	if !codecStart.IsZero() && req.TraceID != 0 {
		codecMicros = n.cfg.Clock.Now().Sub(codecStart).Microseconds()
	}
	// The reply's matched query IDs go into this frame's array while they
	// fit: the reply is encoded below and never outlives the handler.
	var ids [inlineMatches]string
	reply, changed, err := n.acceptOne(&req, ids[:0], codecMicros)
	if err != nil {
		return nil, err
	}
	if changed {
		// A new continuous query, or a new subscriber for a stored one, is
		// state worth surviving a crash: push it to the successors right
		// away, so even a query registered moments before its holder dies is
		// recoverable, and a recovered query notifies the subscriber that
		// registered it last. A successor holding the previous replica
		// version gets only the changed record (a delta push; see
		// replica.go); batch registrations coalesce to one push per frame
		// (handleAcceptBatch). A sampled registration threads its span
		// context onto the push so the replica holders' spans join the trace
		// tree.
		n.replicate(spanRef{TraceID: req.TraceID, Parent: reply.SpanID, Hop: req.Hop + 1})
	}
	// Direct call rather than marshalMsg: boxing the reply into wireMsg would
	// heap-allocate it on every delivery.
	return reply.MarshalWire(wirecodec.GetBuf()), nil
}

// handleAcceptBatch is the vectored ACCEPT_OBJECT path: all objects pass
// through the server state machine against one read-snapshot load, with no
// lock taken, then the per-object side effects (metering, query matching,
// match push) run. The reply carries one entry per object in request order;
// per-object failures fill that entry's Error instead of failing the frame.
// The frame is planned in pooled scratch (batchScratch), so a batch of
// unmatched objects allocates nothing once the pool is warm.
//
//clash:hotpath
func (n *Node) handleAcceptBatch(payload []byte) ([]byte, error) {
	var codecStart time.Time
	if n.obs.get() != nil {
		codecStart = n.cfg.Clock.Now()
	}
	b := batchPool.Get().(*batchScratch)
	defer b.release()
	req := &b.req
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	traced := false
	for i := range req.Objects {
		o := &req.Objects[i]
		k, err := bitkey.New(o.KeyValue, o.KeyBits)
		if err != nil {
			return nil, err
		}
		b.keys = append(b.keys, k)
		b.depths = append(b.depths, o.Depth)
		traced = traced || o.TraceID != 0
	}
	var codecMicros int64
	if traced = traced && !codecStart.IsZero(); traced {
		// Like the route stage below, the frame decodes as one unit: a traced
		// object is attributed the whole batch's codec time.
		codecMicros = n.cfg.Clock.Now().Sub(codecStart).Microseconds()
	}
	var routeStart time.Time
	if traced {
		routeStart = n.cfg.Clock.Now()
	}
	b.results = slices.Grow(b.results, len(b.keys))[:len(b.keys)]
	b.errs = slices.Grow(b.errs, len(b.keys))[:len(b.keys)]
	n.server.HandleAcceptObjectBatch(b.keys, b.depths, b.results, b.errs)
	var routeMicros int64
	if traced {
		// The batch passes the state machine as one unit against one
		// snapshot, so a traced object inside it is attributed the whole
		// batch duration (the time its delivery actually spent in routing).
		routeMicros = n.cfg.Clock.Now().Sub(routeStart).Microseconds()
	}
	changedAny := false
	var regSpan spanRef
	for i := range req.Objects {
		if b.errs[i] != nil {
			b.replies = append(b.replies, core.AcceptObjectReplyMsg{Error: b.errs[i].Error()})
			continue
		}
		// The object's matched IDs go into the frame's ID scratch while it
		// has room; appending them there afterwards claims that room (or, when
		// applyObject outgrew it, grows the scratch for the next frame).
		rep, changed, err := n.applyObject(&req.Objects[i], b.keys[i], b.results[i], b.ids[len(b.ids):], routeMicros, codecMicros)
		if err != nil {
			b.replies = append(b.replies, core.AcceptObjectReplyMsg{Error: err.Error()})
			continue
		}
		b.ids = append(b.ids, rep.Matches...)
		if changed && regSpan.TraceID == 0 && rep.SpanID != 0 {
			regSpan = spanRef{TraceID: req.Objects[i].TraceID, Parent: rep.SpanID, Hop: req.Objects[i].Hop + 1}
		}
		changedAny = changedAny || changed
		b.replies = append(b.replies, rep)
	}
	if changedAny {
		// The coalesced push carries the first sampled registration's span
		// context (one push, one parent — the other registrations' traces
		// simply end at their accept span).
		n.replicate(regSpan)
	}
	// Direct call rather than marshalMsg: boxing the reply into wireMsg would
	// heap-allocate it on every batch.
	out := core.AcceptBatchReplyMsg{Replies: b.replies}
	return out.MarshalWire(wirecodec.GetBuf()), nil
}

// batchScratch is one ACCEPT_BATCH frame's working memory: the decoded
// request, the keys and depths the state machine reads, its results, the
// replies and the matched query IDs they share. It comes from batchPool and
// goes back once the reply is encoded.
type batchScratch struct {
	req     core.AcceptBatchMsg
	keys    []bitkey.Key
	depths  []int
	results []core.AcceptObjectResult
	errs    []error
	replies []core.AcceptObjectReplyMsg
	ids     []string
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release clears the scratch, so the pooled frame pins no payload, error or
// query ID, and returns it to batchPool.
func (b *batchScratch) release() {
	clear(b.req.Objects)
	clear(b.errs)
	clear(b.replies)
	clear(b.ids)
	b.req.Objects = b.req.Objects[:0]
	b.keys, b.depths, b.results, b.errs = b.keys[:0], b.depths[:0], b.results[:0], b.errs[:0]
	b.replies, b.ids = b.replies[:0], b.ids[:0]
	batchPool.Put(b)
}

// acceptOne runs one object through the server state machine and its side
// effects. The bool reports whether the stored query state changed, and ids
// is the reply's scratch for matched query IDs (see applyObject).
// codecMicros is the frame decode time the caller measured (only meaningful
// on a traced request).
func (n *Node) acceptOne(req *core.AcceptObjectMsg, ids []string, codecMicros int64) (core.AcceptObjectReplyMsg, bool, error) {
	key, err := bitkey.New(req.KeyValue, req.KeyBits)
	if err != nil {
		return core.AcceptObjectReplyMsg{}, false, err
	}
	traced := req.TraceID != 0 && n.obs.get() != nil
	var routeStart time.Time
	if traced {
		routeStart = n.cfg.Clock.Now()
	}
	res, err := n.server.HandleAcceptObject(key, req.Depth)
	if err != nil {
		return core.AcceptObjectReplyMsg{}, false, err
	}
	var routeMicros int64
	if traced {
		routeMicros = n.cfg.Clock.Now().Sub(routeStart).Microseconds()
	}
	return n.applyObject(req, key, res, ids, routeMicros, codecMicros)
}

// inlineMatches sizes the stack arrays the publish path matches into: the
// matched queries, their reply IDs and their push targets. A publish that
// matches more queries grows them onto the heap.
const inlineMatches = 8

// applyObject converts a state-machine result into the wire reply and, when
// the object landed on the right server, applies its application effect
// (meter + query match for data, engine registration for queries). The bool
// reports whether the stored query state changed: a new continuous query, or
// a new subscriber for a stored one (the caller pushes a replica update when
// so). The reply's Matches are appended to ids, an empty slice: nil, or
// the caller's stack array.
// routeMicros is the state-machine time the caller measured for this object
// (only meaningful on a traced request).
func (n *Node) applyObject(req *core.AcceptObjectMsg, key bitkey.Key, res core.AcceptObjectResult, ids []string, routeMicros, codecMicros int64) (core.AcceptObjectReplyMsg, bool, error) {
	var obs Observer
	if req.TraceID != 0 {
		obs = n.obs.get()
	}
	// A sampled request gets a hop span: the root of the trace tree when the
	// probe arrived with no parent (this node is the client's first contact),
	// otherwise a resolve or route-forward hop chained under the sender's
	// span. The span ID is echoed in the reply so the client parents its next
	// probe under it.
	var spanID uint64
	spanKind := HopRouteForward
	if obs != nil {
		spanID = n.nextSpanID()
		if req.ParentSpan == 0 {
			spanKind = HopIngress
		}
	}
	reply := core.AcceptObjectReplyMsg{Status: res.Status, SpanID: spanID}
	switch res.Status {
	case core.StatusOK, core.StatusOKCorrected:
		reply.GroupValue = res.Group.Prefix.Value
		reply.GroupBits = res.Group.Prefix.Bits
		reply.CorrectDepth = res.CorrectDepth
	case core.StatusIncorrectDepth:
		reply.DMin = res.DMin
		if obs != nil {
			// A redirected probe is a split-resolution hop of the modified
			// binary search: its state-machine time is the resolve stage.
			obs.OnTraceStage(TraceStageResolve, routeMicros)
			if spanKind == HopRouteForward {
				spanKind = HopResolve
			}
			n.emitSpan(obs, Span{
				TraceID:       req.TraceID,
				SpanID:        spanID,
				Parent:        req.ParentSpan,
				Hop:           req.Hop,
				Kind:          spanKind,
				Detail:        "dmin=" + strconv.Itoa(res.DMin),
				CodecMicros:   codecMicros,
				HandlerMicros: routeMicros,
			})
		}
		return reply, false, nil
	}
	if obs != nil {
		n.emitSpan(obs, Span{
			TraceID:       req.TraceID,
			SpanID:        spanID,
			Parent:        req.ParentSpan,
			Hop:           req.Hop,
			Kind:          spanKind,
			Detail:        "group=" + res.Group.String(),
			CodecMicros:   codecMicros,
			HandlerMicros: routeMicros,
		})
	}

	changed := false
	var matchMicros int64
	switch req.Kind {
	case core.ObjectData:
		n.meter.RecordPackets(res.Group, 1)
		var data dataMsg
		if len(req.Payload) > 0 {
			if err := data.UnmarshalWire(req.Payload); err != nil {
				return core.AcceptObjectReplyMsg{}, false, fmt.Errorf("bad data payload: %v", err)
			}
		}
		ev := cq.Event{Key: key, AttrSection: data.AttrSection, Payload: data.Payload}
		var matchStart time.Time
		if obs != nil {
			matchStart = n.cfg.Clock.Now()
		}
		var qs [inlineMatches]cq.Query
		matched := n.engine.AppendMatch(qs[:0], ev)
		if obs != nil {
			matchMicros = n.cfg.Clock.Now().Sub(matchStart).Microseconds()
		}
		for i := range matched {
			ids = append(ids, matched[i].ID)
		}
		reply.Matches = ids
		pushCtx := spanRef{TraceID: req.TraceID, Hop: req.Hop + 1}
		if obs != nil {
			// The engine match is a same-node child span of the accept span;
			// the match pushes hang off it in turn.
			matchSpan := n.nextSpanID()
			pushCtx.Parent = matchSpan
			n.emitSpan(obs, Span{
				TraceID:       req.TraceID,
				SpanID:        matchSpan,
				Parent:        spanID,
				Hop:           req.Hop,
				Kind:          HopCQMatch,
				Detail:        "matches=" + strconv.Itoa(len(matched)),
				HandlerMicros: matchMicros,
			})
		}
		n.pushMatches(matched, ev, pushCtx)
	case core.ObjectQuery:
		var st queryState
		if err := st.UnmarshalWire(req.Payload); err != nil {
			return core.AcceptObjectReplyMsg{}, false, fmt.Errorf("bad query payload: %v", err)
		}
		q, err := cq.UnmarshalQuery(st.Query)
		if err != nil {
			return core.AcceptObjectReplyMsg{}, false, err
		}
		if err := n.engine.Register(q); err != nil {
			if !errors.Is(err, cq.ErrDuplicateQuery) {
				return core.AcceptObjectReplyMsg{}, false, err
			}
		} else {
			changed = true
		}
		n.mu.Lock()
		if n.setSubscriberLocked(q.ID, st.Subscriber) {
			changed = true
		}
		if changed {
			n.repDirty = append(n.repDirty, q.ID)
		}
		n.mu.Unlock()
	}
	if obs != nil {
		rec := TraceRecord{
			TraceID: req.TraceID,
			TimeMs:  n.cfg.Clock.Now().UnixMilli(),
			Node:    n.Addr(),
			Key:     key.String(),
			Group:   res.Group.String(),
			Status:  int(res.Status),
			Matches: len(reply.Matches),
			Stages:  []TraceStage{{Stage: TraceStageRoute, Micros: routeMicros}},
		}
		obs.OnTraceStage(TraceStageRoute, routeMicros)
		if req.Kind == core.ObjectData {
			rec.Stages = append(rec.Stages, TraceStage{Stage: TraceStageMatch, Micros: matchMicros})
			obs.OnTraceStage(TraceStageMatch, matchMicros)
		}
		obs.OnTrace(rec)
	}
	return reply, changed, nil
}

// pushMatches delivers match notifications to the subscribers of the matched
// queries — asynchronously by default so a slow subscriber never blocks the
// data path, or inline when Config.InlineMatchPush is set (the simulator's
// single-threaded mode). Deliveries follow the matched order (engine.Match
// sorts by query ID), so a deterministic transport sees a deterministic
// message sequence. The inline path allocates nothing while the targets fit
// in inlineMatches: each push is encoded into a pooled buffer and delivered
// by a method, not a closure. An async push goes to a parked matchWorker,
// and a new worker is spawned only when none is parked.
// tc, when it carries a non-zero TraceID, marks the originating publish as
// sampled: each delivery's time is reported as a deliver-stage observation
// plus a subscriber-deliver span chained under tc.Parent (the cq-match span).
// That time is the round trip on the in-memory fabric and only the frame
// write on TCP, where a match is a one-way notification (see wire.go). The
// span is recorded by this (sending) node — subscribers are client
// endpoints, not overlay nodes — with the push's queue wait and network
// time; the matchMsg still carries the trace context so the subscriber can
// correlate the notification with its publish.
func (n *Node) pushMatches(matched []cq.Query, ev cq.Event, tc spanRef) {
	if len(matched) == 0 {
		return
	}
	var buf [inlineMatches]matchPush
	pushes := buf[:0]
	n.mu.Lock()
	for i := range matched {
		if sub := n.queries[matched[i].ID].subscriber; sub != "" {
			pushes = append(pushes, matchPush{tc: tc, queryID: matched[i].ID, sub: sub})
		}
	}
	n.mu.Unlock()
	for i := range pushes {
		p := &pushes[i]
		if tc.TraceID != 0 && n.obs.get() != nil {
			p.spanID = n.nextSpanID()
			p.enqueued = n.cfg.Clock.Now()
		}
		msg := matchMsg{
			QueryID:    p.queryID,
			KeyValue:   ev.Key.Value,
			KeyBits:    ev.Key.Bits,
			Attrs:      ev.AttrSection,
			Payload:    ev.Payload,
			TraceID:    tc.TraceID,
			ParentSpan: p.spanID,
			Hop:        tc.Hop,
		}
		// Marshal synchronously: ev.AttrSection and ev.Payload may alias the
		// pooled request buffer, which the transport recycles once the
		// publish handler returns. The marshalled frame is self-contained, so
		// the async delivery goroutine only ever touches the copy.
		p.payload = msg.MarshalWire(wirecodec.GetBuf())
		if n.cfg.InlineMatchPush {
			n.deliverMatch(p)
			continue
		}
		if !n.pushers.submit(*p) {
			n.wg.Add(1)
			go n.matchWorker(*p)
		}
	}
}

// matchWorker delivers push p and then parks for the next one (see
// parked). Close releases the parked workers.
func (n *Node) matchWorker(p matchPush) {
	defer n.wg.Done()
	for ok := true; ok; p, ok = n.pushers.park() {
		n.deliverMatch(&p)
		p = matchPush{} // a parked worker pins no subscriber or trace
	}
}

// matchPush is one planned match notification: the subscriber, the matched
// query, the encoded frame payload (a pooled buffer deliverMatch recycles)
// and, for a sampled publish, the trace context with the push span's ID and
// enqueue time.
type matchPush struct {
	tc       spanRef
	queryID  string
	sub      string
	payload  []byte
	spanID   uint64
	enqueued time.Time
}

// deliverMatch sends one planned match push and recycles its payload.
func (n *Node) deliverMatch(p *matchPush) {
	defer wirecodec.PutBuf(p.payload)
	obs := n.obs.get()
	var start time.Time
	if p.tc.TraceID != 0 && obs != nil {
		start = n.cfg.Clock.Now()
	}
	// Match delivery is at-most-once (not idempotent), but the caller still
	// supplies the data-class deadline and retries a shed — the handler never
	// ran, so a resend cannot duplicate a notification. On TCP the push is
	// one-way: it returns once written, and a shed or handler error never
	// comes back.
	if _, err := n.caller.call(p.sub, TypeMatch, p.payload); err != nil {
		atomic.AddInt64(&n.matchDrops, 1)
	}
	if p.tc.TraceID == 0 || obs == nil {
		return
	}
	rtt := n.cfg.Clock.Now().Sub(start).Microseconds()
	obs.OnTraceStage(TraceStageDeliver, rtt)
	if p.spanID == 0 {
		// The observer appeared between enqueue and delivery; no span ID (or
		// queue stamp) was drawn, so skip the span.
		return
	}
	n.emitSpan(obs, Span{
		TraceID:       p.tc.TraceID,
		SpanID:        p.spanID,
		Parent:        p.tc.Parent,
		Hop:           p.tc.Hop,
		Kind:          HopDeliver,
		Detail:        "query=" + p.queryID,
		QueueMicros:   start.Sub(p.enqueued).Microseconds(),
		NetworkMicros: rtt,
	})
}

func (n *Node) handleAcceptKeyGroup(payload []byte) ([]byte, error) {
	var req core.AcceptKeyGroupMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	prefix, err := bitkey.New(req.GroupValue, req.GroupBits)
	if err != nil {
		return nil, err
	}
	g := bitkey.NewGroup(prefix)
	states := make([]queryState, 0, len(req.Queries))
	for _, raw := range req.Queries {
		var st queryState
		if err := st.UnmarshalWire(raw); err == nil {
			states = append(states, st)
		}
	}
	if err := n.server.HandleAcceptKeyGroupEpoch(g, core.ServerID(req.Parent), req.Epoch); err != nil {
		if errors.Is(err, core.ErrCovered) {
			// The range is already served here by finer or coarser active
			// groups — the sender's copy is stale. Keep its query state
			// (the packets it matches land on this server) and reply OK so
			// the sender drops the duplicate instead of resurrecting it.
			n.installQueries(states)
			n.replicate(spanRef{})
			return nil, nil
		}
		return nil, err
	}
	n.installQueries(states)
	// Accepting a group (split transfer or ownership re-homing) changes the
	// replicable state: push the new snapshot to the successors.
	n.replicate(spanRef{})
	return nil, nil
}

func (n *Node) handleLoadReport(payload []byte) ([]byte, error) {
	var req core.LoadReportMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	prefix, err := bitkey.New(req.GroupValue, req.GroupBits)
	if err != nil {
		return nil, err
	}
	rep := core.LoadReport{
		From:  core.ServerID(req.From),
		To:    core.ServerID(n.Addr()),
		Group: bitkey.NewGroup(prefix),
		Load:  req.Load,
	}
	// A stale report (the sender's view lags a merge or re-transfer) is not
	// an error worth a failed reply; it is simply dropped.
	_ = n.server.HandleLoadReport(rep, n.cfg.Clock.Now())
	return nil, nil
}

// handleChildMoved updates the holder of a transferred right child after the
// overlay re-homed it to a different node.
func (n *Node) handleChildMoved(payload []byte) ([]byte, error) {
	var req childMovedMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	prefix, err := bitkey.New(req.GroupValue, req.GroupBits)
	if err != nil {
		return nil, err
	}
	// Stale notifications (the pair merged meanwhile) are dropped silently.
	_ = n.server.HandleChildMoved(bitkey.NewGroup(prefix), core.ServerID(req.Holder))
	return nil, nil
}

// handleReleaseKeyGroup hands a key group (and its query state) back to the
// reclaiming parent during consolidation.
func (n *Node) handleReleaseKeyGroup(payload []byte) ([]byte, error) {
	var req core.ReleaseKeyGroupMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	prefix, err := bitkey.New(req.GroupValue, req.GroupBits)
	if err != nil {
		return nil, err
	}
	g := bitkey.NewGroup(prefix)
	states := n.extractQueries(g)
	if err := n.server.HandleRelease(g); err != nil {
		// ErrUnknownGroup means this server holds nothing for the group (a
		// previous release's reply was lost, or the group was re-homed):
		// tell the parent it is gone so the merge can complete. Any other
		// error (split further here) means the parent's view is stale.
		n.installQueries(states)
		reply := core.ReleaseKeyGroupReplyMsg{
			GroupValue: req.GroupValue,
			GroupBits:  req.GroupBits,
			OK:         false,
			Error:      err.Error(),
			Gone:       errors.Is(err, core.ErrUnknownGroup),
		}
		return marshalMsg(&reply), nil
	}
	// Releasing a group shrinks the replicable state; push the new snapshot
	// so the successors stop holding the released range under this origin.
	n.replicate(spanRef{})
	reply := core.ReleaseKeyGroupReplyMsg{GroupValue: req.GroupValue, GroupBits: req.GroupBits, OK: true}
	for i := range states {
		reply.Queries = append(reply.Queries, states[i].MarshalWire(nil))
	}
	return marshalMsg(&reply), nil
}
