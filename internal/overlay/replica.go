package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/core"
	"clash/internal/cq"
)

// Key-group replication and crash recovery.
//
// Every node pushes its full replicable state — active group snapshots plus
// their continuous-query state — to the first Config.ReplicationFactor live
// successors: immediately after a split, merge, transfer or CQ registration,
// once per load-check period (which repairs lost pushes), and whenever the
// chord successor list changes (so replicas follow ring churn). The push is a
// full-state replacement ordered by (incarnation, version), so a group the
// origin shed simply disappears from the replica without tombstone
// bookkeeping.
//
// A push carries every stored query, so it is kept to a copy of bytes
// already built. Each query's queryState wire record is encoded once, on the
// first push after the query was registered or its subscriber changed, and
// kept beside its subscriber (Node.queries); a push appends the stored
// records in the engine's region order without re-encoding or sorting them.
// The receiver validates the whole push in place (scanReplicate), reads only
// its header, and stores one owned copy of the payload — only when the push
// is newer than the stored one. The copy is decoded only when it is used: on
// promotion and to answer a recovery pull.
//
// Recovery runs two ways:
//
//   - Promotion: when ring maintenance detects that a replica's origin is
//     dead and this node now owns the origin's ring position (the crashed
//     node's key range collapsed onto us), the locally held replicas are
//     promoted to active groups — queries installed, ownership re-announced
//     to each group's parent via TypeChildMoved — and pushed onward to our
//     own successors.
//   - Pull: a node that crashed and restarted empty asks its successors for
//     the replica set they store under its own address (TypeRecoverKeyGroups)
//     and restores the freshest copy, covering the window where the restart
//     beats the ring's failure detection.

// replicaSet is the stored replica of one origin's key-group state: the
// origin's last accepted push, validated and kept as sent. A stored payload
// is never modified, only replaced, so what is decoded from it may be used
// after n.mu is released.
type replicaSet struct {
	incarnation uint64
	version     uint64
	seen        time.Time // last refresh, for garbage collection
	groups      int       // group records in payload
	payload     []byte    // an owned copy of the replicateMsg
}

// decode parses the stored push, minus its trace context. The payload was
// validated when it was stored, so it decodes.
func (s *replicaSet) decode() replicateMsg {
	var msg replicateMsg
	_ = msg.UnmarshalWire(s.payload)
	msg.TraceID, msg.ParentSpan, msg.Hop = 0, 0, 0
	return msg
}

// replicationTargets returns the first ReplicationFactor distinct successors
// (excluding self) — the peers that hold this node's replicas.
func (n *Node) replicationTargets() []string {
	k := n.cfg.ReplicationFactor
	if k <= 0 {
		return nil
	}
	var out []string
	for _, s := range n.chord.Successors() {
		if s.Addr == "" || s.Addr == n.Addr() {
			continue
		}
		dup := false
		for _, t := range out {
			if t == s.Addr {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, s.Addr)
		if len(out) == k {
			break
		}
	}
	return out
}

// snapshotQueriesLocked returns the queryState wire records of the queries
// stored in g, by region and then ID — the replication mirror of
// extractQueries. The records are the stored ones, shared rather than
// copied. Callers hold n.mu.
func (n *Node) snapshotQueriesLocked(g bitkey.Group) [][]byte {
	var recs [][]byte
	n.engine.VisitInGroup(g, func(q cq.Query) {
		if rec := n.queryRecordLocked(q); rec != nil {
			recs = append(recs, rec)
		}
	})
	return recs
}

// replicaGroupsLocked builds the wire records for the given active groups,
// in the table's deterministic prefix order. Callers hold n.mu.
func (n *Node) replicaGroupsLocked(snaps []core.GroupSnapshot) []replicaGroupRec {
	if len(snaps) == 0 {
		return nil
	}
	out := make([]replicaGroupRec, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, replicaGroupRec{
			GroupValue: s.Group.Prefix.Value,
			GroupBits:  s.Group.Prefix.Bits,
			Parent:     string(s.Parent),
			IsRoot:     s.IsRoot,
			Epoch:      s.Epoch,
			Queries:    n.snapshotQueriesLocked(s.Group),
		})
	}
	return out
}

// replicate pushes the node's current replica snapshot to its replication
// targets. Best effort: a lost push is repaired by the next one (every
// load-check period at the latest). An empty snapshot is pushed too — it is
// what clears a stale remote copy after this node shed its last group — but
// only once the node has ever held state or finished its recovery pull: a
// restarted node must not wipe the successors' copy of its own pre-crash
// state with the empty pushes its join triggers.
func (n *Node) replicate() { n.replicateSpan(spanRef{}) }

// replicateSpan is replicate with a trace context: when tc carries a sampled
// registration's span, the push frames carry it so every replica holder
// records a replica-push span chained under the registration's accept span.
func (n *Node) replicateSpan(tc spanRef) {
	targets := n.replicationTargets()
	if len(targets) == 0 {
		return
	}
	// Snapshot and version are assigned under one mutex: two concurrent
	// replicates (a handler's post-registration push racing the load check)
	// must not stamp the older snapshot with the newer version, or the
	// receivers would keep the stale content as authoritative.
	n.repMu.Lock()
	snaps := n.server.SnapshotActive()
	n.mu.Lock()
	groups := n.replicaGroupsLocked(snaps)
	// State parked outside the table and engine would be invisible to the
	// per-group snapshot — and gone with a crash. A parked transfer is a
	// whole group in flight (released locally, not yet accepted remotely):
	// it rides as a restorable group record with its queries and epoch.
	// Orphaned query placements have no group and ride as loose records.
	for _, k := range sortedKeys(n.pending) {
		p := n.pending[k]
		rec := replicaGroupRec{
			GroupValue: p.transfer.Group.Prefix.Value,
			GroupBits:  p.transfer.Group.Prefix.Bits,
			Parent:     string(p.transfer.Parent),
			Epoch:      p.epoch,
		}
		for i := range p.queries {
			rec.Queries = append(rec.Queries, p.queries[i].MarshalWire(nil))
		}
		groups = append(groups, rec)
	}
	var loose [][]byte
	for i := range n.orphans {
		loose = append(loose, n.orphans[i].st.MarshalWire(nil))
	}
	if len(groups) == 0 && len(loose) == 0 && !n.mayPushEmpty {
		n.mu.Unlock()
		n.repMu.Unlock()
		return
	}
	if len(groups) > 0 || len(loose) > 0 {
		n.mayPushEmpty = true
	}
	n.repVersion++
	msg := replicateMsg{
		Origin:      n.Addr(),
		Incarnation: n.incarnation,
		Version:     n.repVersion,
		Groups:      groups,
		Loose:       loose,
		TraceID:     tc.TraceID,
		ParentSpan:  tc.Parent,
		Hop:         tc.Hop,
	}
	n.mu.Unlock()
	n.repMu.Unlock()
	payload := msg.MarshalWire(nil)
	for _, t := range targets {
		// A suspected (gray — slow or shedding) target gets its push on a
		// background goroutine so one wedged successor cannot stall the
		// remaining targets' pushes — or the maintenance pass driving this
		// call. Under the simulator (InlineMatchPush) everything stays inline:
		// event execution is single-threaded and timeouts cost virtual, not
		// wall, time.
		if !n.cfg.InlineMatchPush && n.susp.state(t) == chord.PeerSuspect {
			n.wg.Add(1)
			go func(addr string) {
				defer n.wg.Done()
				_, _ = n.caller.call(addr, TypeReplicateKeyGroup, payload)
			}(t)
			continue
		}
		_, _ = n.caller.call(t, TypeReplicateKeyGroup, payload)
	}
}

// handleReplicate stores a peer's replica set, replacing the previous copy
// unless the push is older than what is already held (a delayed duplicate
// from before a crash-restart or a reordered retry). A push carrying a
// sampled registration's trace context gets a replica-push span: this node
// is one hop of that publish's cross-node path.
func (n *Node) handleReplicate(payload []byte) ([]byte, error) {
	obs := n.obs.get()
	var codecStart time.Time
	if obs != nil {
		codecStart = n.cfg.Clock.Now()
	}
	// The whole push is validated now, so a malformed one never replaces a
	// good stored copy, but only its header is decoded: the records are read
	// again only on promotion or a recovery pull.
	h, err := scanReplicate(payload)
	if err != nil {
		return nil, err
	}
	traced := obs != nil && h.Trace.TraceID != 0
	var codecMicros int64
	var handlerStart time.Time
	if traced {
		handlerStart = n.cfg.Clock.Now()
		codecMicros = handlerStart.Sub(codecStart).Microseconds()
	}
	stored := n.storeReplica(&h, payload)
	if traced {
		n.emitSpan(obs, Span{
			TraceID:       h.Trace.TraceID,
			SpanID:        n.nextSpanID(),
			Parent:        h.Trace.Parent,
			Hop:           h.Trace.Hop,
			Kind:          HopReplicaPush,
			Detail:        fmt.Sprintf("origin=%s groups=%d stored=%t", h.Origin, h.Groups, stored),
			CodecMicros:   codecMicros,
			HandlerMicros: n.cfg.Clock.Now().Sub(handlerStart).Microseconds(),
		})
	}
	return nil, nil
}

// storeReplica applies one validated replicate push, reporting whether the
// set was stored (false: self/empty origin or stale version). payload lives
// in a pooled buffer the transport recycles after the handler returns, so a
// stored push is cloned; a stale one is not.
func (n *Node) storeReplica(h *replicateHeader, payload []byte) bool {
	if len(h.Origin) == 0 || string(h.Origin) == n.Addr() {
		return false
	}
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	set, ok := n.replicas[string(h.Origin)]
	if ok && (h.Incarnation < set.incarnation ||
		(h.Incarnation == set.incarnation && h.Version < set.version)) {
		set.seen = now // stale content, but still proof the origin lives
		return false
	}
	if !ok {
		set = &replicaSet{}
		n.replicas[string(h.Origin)] = set
	}
	*set = replicaSet{
		incarnation: h.Incarnation,
		version:     h.Version,
		seen:        now,
		groups:      h.Groups,
		payload:     bytes.Clone(payload),
	}
	return true
}

// sortedKeys returns a map's keys in sorted order (deterministic iteration
// for the simulator).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// decodeLoose parses loose queryState records; undecodable entries are
// dropped.
func decodeLoose(raw [][]byte) []queryState {
	out := make([]queryState, 0, len(raw))
	for _, rec := range raw {
		var st queryState
		if err := st.UnmarshalWire(rec); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// handleRecoverKeyGroups returns the replica set stored for the requested
// origin (empty, version 0, when none is held).
func (n *Node) handleRecoverKeyGroups(payload []byte) ([]byte, error) {
	var req recoverMsg
	if err := req.UnmarshalWire(payload); err != nil {
		return nil, err
	}
	reply := replicateMsg{Origin: req.Origin}
	n.mu.Lock()
	if set, ok := n.replicas[req.Origin]; ok {
		reply = set.decode()
	}
	n.mu.Unlock()
	return marshalMsg(&reply), nil
}

// restoreReplicaGroups promotes replica records to active local groups and
// returns how many new entries that installed. A record whose range is
// already served here keeps only its queries; a record conflicting with local
// split linkage hands its queries to the orphan requeue so they land on
// whichever servers cover their keys now.
func (n *Node) restoreReplicaGroups(groups []replicaGroupRec) int {
	restored := 0
	for i := range groups {
		rec := &groups[i]
		prefix, err := bitkey.New(rec.GroupValue, rec.GroupBits)
		if err != nil {
			continue
		}
		g := bitkey.NewGroup(prefix)
		states := decodeLoose(rec.Queries)
		snap := core.GroupSnapshot{
			Group:  g,
			Parent: core.ServerID(rec.Parent),
			IsRoot: rec.IsRoot,
			Epoch:  rec.Epoch,
		}
		installed, err := n.server.RestoreGroup(snap)
		switch {
		case err == nil && installed:
			n.installQueries(states)
			n.resetQueryCount(g)
			n.notifyChildMoved(g, snap.Parent, core.ServerID(n.Addr()))
			restored++
		case err == nil:
			// Already active here (another recovery path got there first);
			// merge in any queries the other path did not carry.
			n.installQueries(states)
		case errors.Is(err, core.ErrCovered):
			n.installQueries(states)
		default:
			n.orphanQueries(states)
		}
	}
	return restored
}

// recoverFromReplicas scans the stored replica origins and promotes the state
// of every origin that is dead and whose ring position this node now owns —
// the recovery half of successor-list replication. Called from ring
// maintenance (Tick) and at the start of every load check, so a crashed
// holder's groups resurface within a stabilization round or two of the ring
// detecting the failure.
func (n *Node) recoverFromReplicas() {
	if n.cfg.ReplicationFactor <= 0 {
		return
	}
	n.mu.Lock()
	if len(n.replicas) == 0 {
		n.mu.Unlock()
		return
	}
	origins := make([]string, 0, len(n.replicas))
	for o := range n.replicas {
		origins = append(origins, o)
	}
	n.mu.Unlock()
	sort.Strings(origins)

	promoted := 0
	for _, origin := range origins {
		if origin == n.Addr() {
			continue
		}
		if !n.chord.OwnerOf(n.cfg.Space.HashString(origin)) {
			continue
		}
		if n.originAlive(origin) {
			continue
		}
		n.mu.Lock()
		set := n.replicas[origin]
		delete(n.replicas, origin)
		n.mu.Unlock()
		if set == nil {
			continue
		}
		msg := set.decode()
		restored := n.restoreReplicaGroups(msg.Groups)
		if restored > 0 {
			n.emit(Event{Type: EventRecovery, Peer: origin,
				Detail: fmt.Sprintf("promoted groups=%d", restored)})
		}
		promoted += restored
		// The origin's parked query state (loose records) has no group to
		// promote under; re-place it through depth resolution.
		n.orphanQueries(decodeLoose(msg.Loose))
	}
	if promoted > 0 {
		n.replicate()
	}
}

// originAlive pings a replica origin. The resilient caller supplies the retry
// (ping is idempotent) that used to live here, and the suspicion tracker
// short-circuits origins already judged dead — promotion then proceeds without
// paying another timeout per origin per maintenance round.
func (n *Node) originAlive(addr string) bool {
	if n.susp.state(addr) == chord.PeerDead {
		return false
	}
	_, err := n.caller.call(addr, TypePing, nil)
	// A remote application error still proves the origin processed the call.
	return err == nil || IsRemote(err)
}

// recoverOwnState asks the node's successors for the replica set stored under
// its own address and restores the freshest copy. Run after (re)joining the
// ring: it is what lets a node that crashed and restarted empty recover its
// pre-crash groups even when the restart beats the ring's failure detection,
// so no promotion ever happened.
func (n *Node) recoverOwnState() {
	if n.cfg.ReplicationFactor <= 0 {
		return
	}
	req := recoverMsg{Origin: n.Addr()}
	payload := req.MarshalWire(nil)
	var best *replicateMsg
	allAnswered := true
	for _, t := range n.replicationTargets() {
		// The resilient caller retries lost frames on lossy links
		// (recover_keygroups is an idempotent read). A target that still
		// fails may be the sole holder of our pre-crash state, so its
		// silence keeps the empty-push guard on.
		var msg replicateMsg
		ok := false
		if raw, err := n.caller.call(t, TypeRecoverKeyGroups, payload); err == nil {
			ok = msg.UnmarshalWire(raw) == nil
		}
		if !ok {
			allAnswered = false
			continue
		}
		// The freshest (incarnation, version) wins even when its group set
		// is empty: a fresh empty set means the previous incarnation had
		// legitimately shed everything, and restoring a staler non-empty
		// copy instead would resurrect ranges now owned elsewhere. (A peer
		// holding nothing answers (0, 0) and never beats a stored set.)
		if best == nil || msg.Incarnation > best.Incarnation ||
			(msg.Incarnation == best.Incarnation && msg.Version > best.Version) {
			m := msg
			best = &m
		}
	}
	if allAnswered {
		// Every successor answered authoritatively: the node is past its
		// recovery window, and from here on an empty snapshot reflects
		// reality and may clear remote copies. When some successor stayed
		// silent it may hold the only copy of our pre-crash state — an "I
		// hold nothing" answer from the others proves nothing about it — so
		// the empty-push guard stays on (it lifts on our first non-empty
		// push); whatever WAS fetched is still restored below.
		n.mu.Lock()
		n.mayPushEmpty = true
		n.mu.Unlock()
	}
	if best == nil {
		return
	}
	// The stored incarnation doubles as a restart-safe floor: if the local
	// clock stepped backwards across the crash, a wall-clock incarnation
	// would be forever rejected as stale by handleReplicate — adopt one past
	// the freshest the successors have seen instead.
	n.mu.Lock()
	if best.Incarnation >= n.incarnation {
		n.incarnation = best.Incarnation + 1
		n.repVersion = 0
	}
	n.mu.Unlock()
	n.orphanQueries(decodeLoose(best.Loose))
	if restored := n.restoreReplicaGroups(best.Groups); restored > 0 {
		n.emit(Event{Type: EventRecovery, Peer: n.Addr(),
			Detail: fmt.Sprintf("restart pull groups=%d", restored)})
		n.replicate()
	}
}

// replicaTTLPeriods is how many load-check periods an unrefreshed replica set
// survives before gcReplicas may drop it.
const replicaTTLPeriods = 8

// gcReplicas drops replica sets whose origin stopped refreshing them long ago
// and whose ring position is not this node's to cover — the true new owner
// promoted its own copy; ours is a leftover from an old successor-list
// configuration. The age check reads the node's own clock, the same source
// handleReplicate stamps seen from — never a caller-supplied time, which
// tests step on a different stream.
func (n *Node) gcReplicas() {
	now := n.cfg.Clock.Now()
	ttl := time.Duration(replicaTTLPeriods) * n.cfg.LoadCheckInterval
	n.mu.Lock()
	defer n.mu.Unlock()
	for origin, set := range n.replicas {
		if now.Sub(set.seen) > ttl && !n.chord.OwnerOf(n.cfg.Space.HashString(origin)) {
			delete(n.replicas, origin)
		}
	}
}

// orphanQuery is query state whose home group is gone (its transfer was
// dropped, or its group turned out stale during recovery); it is re-placed
// through the standard depth resolution on subsequent load checks.
type orphanQuery struct {
	st       queryState
	attempts int
}

// orphanRetryBudget bounds how many placement attempts one orphaned query
// gets before it is dropped (and counted).
const orphanRetryBudget = 32

// orphanQueries parks query state for re-placement.
func (n *Node) orphanQueries(states []queryState) {
	if len(states) == 0 {
		return
	}
	n.mu.Lock()
	for _, st := range states {
		// Parked state outlives the request that carried it; the decoded
		// Query bytes may alias a pooled payload buffer, so take ownership.
		st.Query = bytes.Clone(st.Query)
		n.orphans = append(n.orphans, orphanQuery{st: st})
	}
	n.mu.Unlock()
}

// requeueOrphans re-places parked query state on whichever servers own the
// queries' identifier keys now.
func (n *Node) requeueOrphans() {
	n.mu.Lock()
	pending := n.orphans
	n.orphans = nil
	n.mu.Unlock()
	for _, o := range pending {
		if n.placeQuery(o.st) == nil {
			continue
		}
		o.attempts++
		if o.attempts >= orphanRetryBudget {
			atomic.AddInt64(&n.orphanDrops, 1)
			continue
		}
		n.mu.Lock()
		n.orphans = append(n.orphans, o)
		n.mu.Unlock()
	}
}

// placeQuery registers one query on the server responsible for its identifier
// key, resolving the current depth with the same modified binary search a
// client uses — the node-side re-homing path for query state that lost its
// group. A nil return means the query was placed (or was undecodable and
// dropped as poison); an error means the placement should be retried.
func (n *Node) placeQuery(st queryState) error {
	q, err := cq.UnmarshalQuery(st.Query)
	if err != nil {
		return nil
	}
	ik, err := q.IdentifierKey(n.cfg.KeyBits)
	if err != nil {
		return nil
	}
	payload := st.MarshalWire(nil)
	self := core.ServerID(n.Addr())
	probe := func(d int) (core.AcceptObjectResult, error) {
		prefix, err := ik.Prefix(d)
		if err != nil {
			return core.AcceptObjectResult{}, err
		}
		vk, err := bitkey.NewGroup(prefix).VirtualKey(n.cfg.KeyBits)
		if err != nil {
			return core.AcceptObjectResult{}, err
		}
		owner, err := n.mapGroup(vk)
		if err != nil {
			return core.AcceptObjectResult{}, err
		}
		req := core.AcceptObjectMsg{
			KeyValue: ik.Value,
			KeyBits:  ik.Bits,
			Depth:    d,
			Kind:     core.ObjectQuery,
			Payload:  payload,
		}
		var reply core.AcceptObjectReplyMsg
		if owner == self {
			reply, _, err = n.acceptOne(&req, 0)
			if err != nil {
				return core.AcceptObjectResult{}, err
			}
		} else {
			raw, err := n.caller.call(string(owner), TypeAcceptObject, req.MarshalWire(nil))
			if err != nil {
				return core.AcceptObjectResult{}, err
			}
			if err := reply.UnmarshalWire(raw); err != nil {
				return core.AcceptObjectResult{}, err
			}
		}
		return decodeAccept(&reply)
	}
	_, err = core.ResolveDepth(n.cfg.KeyBits, 0, probe)
	return err
}
