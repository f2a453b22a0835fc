package overlay

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
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
	reply, registered, err := n.acceptOne(&req, codecMicros)
	if err != nil {
		return nil, err
	}
	if registered {
		// A new continuous query is state worth surviving a crash: push the
		// updated replica snapshot to the successors right away, so even a
		// query registered moments before its holder dies is recoverable.
		// This is a full-snapshot push per registration — O(stored queries)
		// marshaling on a control-plane path; batch registrations coalesce
		// to one push per frame (handleAcceptBatch). A sampled registration
		// threads its span context onto the push so the replica holders'
		// spans join the trace tree.
		n.replicateSpan(spanRef{TraceID: req.TraceID, Parent: reply.SpanID, Hop: req.Hop + 1})
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
//
//clash:hotpath
func (n *Node) handleAcceptBatch(payload []byte) ([]byte, error) {
	var codecStart time.Time
	if n.obs.get() != nil {
		codecStart = n.cfg.Clock.Now()
	}
	var req core.AcceptBatchMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	keys := make([]bitkey.Key, len(req.Objects))
	depths := make([]int, len(req.Objects))
	traced := false
	for i := range req.Objects {
		o := &req.Objects[i]
		k, err := bitkey.New(o.KeyValue, o.KeyBits)
		if err != nil {
			return nil, err
		}
		keys[i] = k
		depths[i] = o.Depth
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
	results, errs := n.server.HandleAcceptObjectBatch(keys, depths)
	var routeMicros int64
	if traced {
		// The batch passes the state machine as one unit against one
		// snapshot, so a traced object inside it is attributed the whole
		// batch duration (the time its delivery actually spent in routing).
		routeMicros = n.cfg.Clock.Now().Sub(routeStart).Microseconds()
	}
	out := core.AcceptBatchReplyMsg{Replies: make([]core.AcceptObjectReplyMsg, len(req.Objects))}
	registeredAny := false
	var regSpan spanRef
	for i := range req.Objects {
		if errs[i] != nil {
			out.Replies[i] = core.AcceptObjectReplyMsg{Error: errs[i].Error()}
			continue
		}
		rep, registered, err := n.applyObject(&req.Objects[i], keys[i], results[i], routeMicros, codecMicros)
		if err != nil {
			out.Replies[i] = core.AcceptObjectReplyMsg{Error: err.Error()}
			continue
		}
		if registered && regSpan.TraceID == 0 && rep.SpanID != 0 {
			regSpan = spanRef{TraceID: req.Objects[i].TraceID, Parent: rep.SpanID, Hop: req.Objects[i].Hop + 1}
		}
		registeredAny = registeredAny || registered
		out.Replies[i] = rep
	}
	if registeredAny {
		// The coalesced push carries the first sampled registration's span
		// context (one push, one parent — the other registrations' traces
		// simply end at their accept span).
		n.replicateSpan(regSpan)
	}
	// Direct call rather than marshalMsg: boxing the reply into wireMsg would
	// heap-allocate it on every batch.
	return out.MarshalWire(wirecodec.GetBuf()), nil
}

// acceptOne runs one object through the server state machine and its side
// effects. The bool reports whether a new continuous query was registered.
// codecMicros is the frame decode time the caller measured (only meaningful
// on a traced request).
func (n *Node) acceptOne(req *core.AcceptObjectMsg, codecMicros int64) (core.AcceptObjectReplyMsg, bool, error) {
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
	return n.applyObject(req, key, res, routeMicros, codecMicros)
}

// applyObject converts a state-machine result into the wire reply and, when
// the object landed on the right server, applies its application effect
// (meter + query match for data, engine registration for queries). The bool
// reports whether a new continuous query was registered (the caller pushes a
// replica update when so). routeMicros is the state-machine time the caller
// measured for this object (only meaningful on a traced request).
func (n *Node) applyObject(req *core.AcceptObjectMsg, key bitkey.Key, res core.AcceptObjectResult, routeMicros, codecMicros int64) (core.AcceptObjectReplyMsg, bool, error) {
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

	registered := false
	var matchMicros int64
	switch req.Kind {
	case core.ObjectData:
		n.meter.RecordPackets(res.Group.String(), 1)
		var data dataMsg
		if len(req.Payload) > 0 {
			if err := data.UnmarshalWire(req.Payload); err != nil {
				return core.AcceptObjectReplyMsg{}, false, fmt.Errorf("bad data payload: %v", err)
			}
		}
		ev := cq.Event{Key: key, Attrs: data.Attrs, Payload: data.Payload}
		var matchStart time.Time
		if obs != nil {
			matchStart = n.cfg.Clock.Now()
		}
		matched := n.engine.Match(ev)
		if obs != nil {
			matchMicros = n.cfg.Clock.Now().Sub(matchStart).Microseconds()
		}
		for _, q := range matched {
			reply.Matches = append(reply.Matches, q.ID)
		}
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
			n.meter.AddQueries(res.Group.String(), 1)
			registered = true
		}
		if st.Subscriber != "" {
			n.mu.Lock()
			n.subscribers[q.ID] = st.Subscriber
			n.mu.Unlock()
		}
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
	return reply, registered, nil
}

// pushMatches delivers match notifications to the subscribers of the matched
// queries — asynchronously by default so a slow subscriber never blocks the
// data path, or inline when Config.InlineMatchPush is set (the simulator's
// single-threaded mode). Deliveries follow the matched order (engine.Match
// sorts by query ID), so a deterministic transport sees a deterministic
// message sequence.
// tc, when it carries a non-zero TraceID, marks the originating publish as
// sampled: each delivery's round trip is reported as a deliver-stage
// observation plus a subscriber-deliver span chained under tc.Parent (the
// cq-match span). The span is recorded by this (sending) node — subscribers
// are client endpoints, not overlay nodes — with the push's queue wait and
// network round trip; the matchMsg still carries the trace context so the
// subscriber can correlate the notification with its publish.
func (n *Node) pushMatches(matched []cq.Query, ev cq.Event, tc spanRef) {
	if len(matched) == 0 {
		return
	}
	type target struct{ id, sub string }
	n.mu.Lock()
	targets := make([]target, 0, len(matched))
	for _, q := range matched {
		if sub := n.subscribers[q.ID]; sub != "" {
			targets = append(targets, target{id: q.ID, sub: sub})
		}
	}
	n.mu.Unlock()
	for _, t := range targets {
		var spanID uint64
		var enqueued time.Time
		if tc.TraceID != 0 && n.obs.get() != nil {
			spanID = n.nextSpanID()
			enqueued = n.cfg.Clock.Now()
		}
		msg := &matchMsg{
			QueryID:    t.id,
			KeyValue:   ev.Key.Value,
			KeyBits:    ev.Key.Bits,
			Attrs:      ev.Attrs,
			Payload:    ev.Payload,
			TraceID:    tc.TraceID,
			ParentSpan: spanID,
			Hop:        tc.Hop,
		}
		// Marshal synchronously: ev.Payload may alias the pooled request
		// buffer, which the transport recycles once the publish handler
		// returns. The marshalled frame is self-contained, so the async
		// delivery goroutine only ever touches the copy.
		payload := marshalMsg(msg)
		deliver := func(sub, queryID string, payload []byte) {
			defer wirecodec.PutBuf(payload)
			obs := n.obs.get()
			var start time.Time
			if tc.TraceID != 0 && obs != nil {
				start = n.cfg.Clock.Now()
			}
			// Match delivery is at-most-once (not idempotent), but the caller
			// still supplies the data-class deadline and retries a shed — the
			// handler never ran, so a resend cannot duplicate a notification.
			if _, err := n.caller.call(sub, TypeMatch, payload); err != nil {
				atomic.AddInt64(&n.matchDrops, 1)
			}
			if tc.TraceID != 0 && obs != nil {
				rtt := n.cfg.Clock.Now().Sub(start).Microseconds()
				obs.OnTraceStage(TraceStageDeliver, rtt)
				if spanID == 0 {
					// The observer appeared between enqueue and delivery; no
					// span ID (or queue stamp) was drawn, so skip the span.
					return
				}
				n.emitSpan(obs, Span{
					TraceID:       tc.TraceID,
					SpanID:        spanID,
					Parent:        tc.Parent,
					Hop:           tc.Hop,
					Kind:          HopDeliver,
					Detail:        "query=" + queryID,
					QueueMicros:   start.Sub(enqueued).Microseconds(),
					NetworkMicros: rtt,
				})
			}
		}
		if n.cfg.InlineMatchPush {
			deliver(t.sub, t.id, payload)
			continue
		}
		n.wg.Add(1)
		go func(sub, queryID string, payload []byte) {
			defer n.wg.Done()
			deliver(sub, queryID, payload)
		}(t.sub, t.id, payload)
	}
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
			n.replicate()
			return nil, nil
		}
		return nil, err
	}
	n.installQueries(states)
	n.resetQueryCount(g)
	// Accepting a group (split transfer or ownership re-homing) changes the
	// replicable state: push the new snapshot to the successors.
	n.replicate()
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
	n.meter.Drop(g.String())
	// Releasing a group shrinks the replicable state; push the new snapshot
	// so the successors stop holding the released range under this origin.
	n.replicate()
	reply := core.ReleaseKeyGroupReplyMsg{GroupValue: req.GroupValue, GroupBits: req.GroupBits, OK: true}
	for i := range states {
		reply.Queries = append(reply.Queries, states[i].MarshalWire(nil))
	}
	return marshalMsg(&reply), nil
}
