package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/wirecodec"
)

// Key-group replication and crash recovery.
//
// Every node replicates its replicable state — active group snapshots plus
// their continuous-query state — to the first Config.ReplicationFactor live
// successors: immediately after a split, merge, transfer or CQ registration,
// once per load-check period (which repairs lost pushes), and whenever the
// chord successor list changes (so replicas follow ring churn). Pushes are
// ordered by (origin incarnation, version); each one stamps the next version.
//
// There is one push message (TypeReplicateKeyGroup), and every push round
// plans each target by one rule (planPush). Each holder answers a push with
// the (incarnation, version) it then stores. A holder that acknowledged
// exactly the previous version gets a delta — the push on that base: the
// records of the queries registered or re-subscribed since, each under its
// group's header, or no records at all (a heartbeat, the common load-check
// push). It gets one only while the work table had no structural change
// since the last push, no orphaned query awaits re-placement, no query state
// changed outside a registration, and the holder's delta log stays smaller
// than the full push it rests on — so a holder keeps at most about twice the
// state. Every other target gets the full state, the delta from version 0,
// which replaces the holder's stored set, so a group the origin shed simply
// disappears from the replica without tombstone bookkeeping. A holder that
// refuses a delta (it lost its copy, or restarted) gets one fallback full
// push at once.
//
// A full push carries every stored query, so it is kept to a copy of bytes
// already built: each query's queryState wire record is encoded once, on the
// first push after the query was registered or its subscriber changed, and
// kept beside its subscriber (Node.queries); a push appends the stored
// records in the engine's region order without re-encoding or sorting them.
//
// The receiver validates each push in place (scanReplicate) and reads only
// its header: it stores one owned copy of a full push that is newer than
// what it holds, and appends a delta's group records to the stored set's log
// only when the set is at exactly the delta's base version. The copy is
// decoded only when it is used — on promotion and to answer a recovery pull —
// and then the log is merged in, each logged record replacing its query's
// earlier one, in the full push's region/ID order.
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
// origin's last accepted full push, validated and kept as sent, plus the
// group records of the delta pushes accepted on top of it, appended as sent
// to log. A stored payload and the logged bytes are never modified, only
// replaced or appended to, so what is decoded from them may be used after
// n.mu is released.
type replicaSet struct {
	incarnation uint64
	version     uint64    // of the last push applied, full or delta
	seen        time.Time // last refresh, for garbage collection
	groups      int       // group records in payload
	payload     []byte    // an owned copy of the full replicateMsg
	log         []byte    // length-prefixed replicaGroupRec records since payload
}

// ack is the version a holder reports for the set.
func (s *replicaSet) ack() replicateAck {
	return replicateAck{Incarnation: s.incarnation, Version: s.version}
}

// decode parses the stored push, minus its trace context, with the delta log
// merged in: exactly the replicateMsg the origin would have pushed in full at
// the set's version. The payload and log were validated when stored, so they
// decode.
func (s *replicaSet) decode() replicateMsg {
	var msg replicateMsg
	_ = msg.UnmarshalWire(s.payload)
	msg.Version = s.version
	msg.TraceID, msg.ParentSpan, msg.Hop = 0, 0, 0
	mergeDeltaLog(msg.Groups, s.log)
	return msg
}

// holdsGroups reports whether every group record of a validated delta
// section names a group of the stored push at the same epoch.
func (s *replicaSet) holdsGroups(section []byte) bool {
	r := wirecodec.NewReader(section)
	for r.Len() > 0 && r.Err() == nil {
		bits, value, epoch := groupHeader(r.Bytes())
		if held, ok := s.groupEpoch(value, bits); !ok || held != epoch {
			return false
		}
	}
	return r.Err() == nil
}

// groupEpoch returns the epoch of the stored push's group record with the
// given prefix; ok is false when there is none.
func (s *replicaSet) groupEpoch(value uint64, bits int) (epoch uint64, ok bool) {
	r := wirecodec.NewReader(s.payload)
	r.Bytes()
	r.Uvarint()
	r.Uvarint()
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		if b, v, e := groupHeader(r.Bytes()); b == bits && v == value {
			return e, true
		}
	}
	return 0, false
}

// groupHeader reads the prefix and epoch of a validated replicaGroupRec.
func groupHeader(rec []byte) (bits int, value, epoch uint64) {
	r := wirecodec.NewReader(rec)
	bits, value = r.Int(), r.Uvarint()
	r.Bytes() // parent
	r.Bool()  // root
	return bits, value, r.Uvarint()
}

// mergeDeltaLog folds a delta log into the decoded groups of its base push:
// each logged query record replaces the group's record of the same query or
// joins the group, and each group the log touched is re-sorted by region
// prefix, then ID — the order in which the origin's full push lists a
// group's queries (cq.Engine.VisitInGroup).
func mergeDeltaLog(groups []replicaGroupRec, log []byte) {
	if len(log) == 0 {
		return
	}
	type entry struct {
		region bitkey.Key
		id     []byte
		rec    []byte
	}
	// Each queryState record is keyed by its query's ID and region, read in
	// place; an undecodable record sorts first.
	keyed := func(rec []byte) entry {
		e := entry{rec: rec}
		r := wirecodec.NewReader(rec)
		if q := r.QueryRecord(); r.Err() == nil {
			e.id, e.region, _ = cq.RecordKey(q)
		}
		return e
	}
	merged := make(map[int][]entry)
	r := wirecodec.NewReader(log)
	for r.Len() > 0 && r.Err() == nil {
		var d replicaGroupRec
		if d.UnmarshalWire(r.Bytes()) != nil {
			break
		}
		gi := slices.IndexFunc(groups, func(g replicaGroupRec) bool {
			return g.GroupValue == d.GroupValue && g.GroupBits == d.GroupBits
		})
		if gi < 0 {
			continue
		}
		entries, ok := merged[gi]
		if !ok {
			for _, rec := range groups[gi].Queries {
				entries = append(entries, keyed(rec))
			}
		}
		for _, rec := range d.Queries {
			e := keyed(rec)
			if i := slices.IndexFunc(entries, func(x entry) bool { return bytes.Equal(x.id, e.id) }); i >= 0 {
				entries[i] = e
			} else {
				entries = append(entries, e)
			}
		}
		merged[gi] = entries
	}
	for gi, entries := range merged {
		slices.SortFunc(entries, func(a, b entry) int {
			if c := a.region.Compare(b.region); c != 0 {
				return c
			}
			return bytes.Compare(a.id, b.id)
		})
		queries := make([][]byte, len(entries))
		for i, e := range entries {
			queries[i] = e.rec
		}
		groups[gi].Queries = queries
	}
}

// replicationTargets returns the first ReplicationFactor distinct successors
// (excluding self) — the peers that hold this node's replicas.
func (n *Node) replicationTargets() []string {
	var p replicaPush
	return n.appendTargets(&p)
}

// appendTargets appends the replication targets to p.addrs, reading the
// successor list into p's scratch, and returns the extended slice.
func (n *Node) appendTargets(p *replicaPush) []string {
	k := n.cfg.ReplicationFactor
	if k <= 0 {
		return p.addrs
	}
	p.succ = n.chord.AppendSuccessors(p.succ[:0])
	start := len(p.addrs)
	for _, s := range p.succ {
		if s.Addr == "" || s.Addr == n.Addr() || slices.Contains(p.addrs[start:], s.Addr) {
			continue
		}
		p.addrs = append(p.addrs, s.Addr)
		if len(p.addrs)-start == k {
			break
		}
	}
	return p.addrs
}

// replicaAck is what the origin knows a replication target holds: the
// (incarnation, version) the target acknowledged, the size of the full push
// that version rests on, and the delta bytes appended to it since.
type replicaAck struct {
	target               string
	incarnation, version uint64
	base, log            int
}

// ackIndex returns the index of target's entry in n.repAcks, or -1. Callers
// hold n.repMu.
func (n *Node) ackIndex(target string) int {
	return slices.IndexFunc(n.repAcks, func(a replicaAck) bool { return a.target == target })
}

// ReplicaPushStats counts a node's outbound replica pushes by kind, one per
// target.
type ReplicaPushStats struct {
	// Full counts full-state pushes (Base 0).
	Full int64 `json:"full"`
	// Delta counts delta pushes (Base > 0), heartbeats included.
	Delta int64 `json:"delta"`
	// DeltaRefused counts deltas a target refused for not holding their
	// base version; each cost one fallback full push.
	DeltaRefused int64 `json:"deltaRefused"`
}

// ReplicaPushes returns the node's replica push counters.
func (n *Node) ReplicaPushes() ReplicaPushStats {
	return ReplicaPushStats{
		Full:         atomic.LoadInt64(&n.repFull),
		Delta:        atomic.LoadInt64(&n.repDelta),
		DeltaRefused: atomic.LoadInt64(&n.repRefused),
	}
}

// replicaPush is one push round: its version, the payloads its targets get
// and the scratch it was planned in. Rounds come from pushPool, and the last
// of a round's sends returns the payloads to the wirecodec pool and the round
// to pushPool, so a push allocates nothing once the pools are warm. A pooled
// round keeps at most maxPushScratch entries of each scratch slice, so what
// the pool holds does not grow with a node's stored state.
type replicaPush struct {
	incarnation, version uint64
	full                 []byte // marshalled full state; nil when every target gets the delta
	delta                []byte // marshalled delta; nil when the round cannot send one
	section              int    // the delta's group record bytes, what a holder appends to its log
	targets              []pushTarget
	pending              atomic.Int32 // sends not yet finished

	// Planning scratch: the successor list, the target addresses, the
	// active groups, and the group records and query records of a payload.
	succ   []chord.NodeRef
	addrs  []string
	snaps  []core.GroupSnapshot
	groups []replicaGroupRec
	recs   [][]byte
	owner  []int // a delta's staged records' group indexes
}

var pushPool = sync.Pool{New: func() any { return new(replicaPush) }}

// maxPushScratch is the most entries a pooled round keeps in one scratch
// slice; a larger one is dropped, as wirecodec.PutBuf drops oversized
// buffers.
const maxPushScratch = 256

// release returns the round's payloads and the round itself to their pools.
// The scratch is cleared so the pooled round pins no record or address.
func (p *replicaPush) release() {
	wirecodec.PutBuf(p.full)
	wirecodec.PutBuf(p.delta)
	p.full, p.delta, p.section = nil, nil, 0
	p.targets = resetScratch(p.targets)
	p.succ = resetScratch(p.succ)
	p.addrs = resetScratch(p.addrs)
	p.snaps = resetScratch(p.snaps)
	p.groups = resetScratch(p.groups)
	p.recs = resetScratch(p.recs)
	p.owner = resetScratch(p.owner)
	pushPool.Put(p)
}

// resetScratch returns s cleared and emptied for reuse, or nil when it holds
// more than maxPushScratch entries.
func resetScratch[T any](s []T) []T {
	if cap(s) > maxPushScratch {
		return nil
	}
	clear(s)
	return s[:0]
}

// pushTarget is one target of a push round and what it had acknowledged
// when the round was planned.
type pushTarget struct {
	addr  string
	delta bool
	ack   replicaAck
}

// replicate pushes the node's replica state to its replication targets: the
// changes since the version a target acknowledged, or the full state (see
// planPush). Best effort: a lost push is repaired by the next one (every
// load-check period at the latest). An empty snapshot is pushed too — it is
// what clears a stale remote copy after this node shed its last group — but
// only once the node has ever held state or finished its recovery pull: a
// restarted node must not wipe the successors' copy of its own pre-crash
// state with the empty pushes its join triggers. When tc carries a sampled
// registration's span, the push frames carry it so every replica holder
// records a replica-push span chained under the registration's accept span.
func (n *Node) replicate(tc spanRef) {
	p := pushPool.Get().(*replicaPush)
	targets := n.appendTargets(p)
	// Forget targets that left the replication set: should one return, it
	// starts over with a full push.
	n.repMu.Lock()
	n.repAcks = slices.DeleteFunc(n.repAcks, func(a replicaAck) bool { return !slices.Contains(targets, a.target) })
	n.repMu.Unlock()
	n.push(p, targets, tc)
}

// push plans round p for targets (which may alias p's scratch) and sends it.
func (n *Node) push(p *replicaPush, targets []string, tc spanRef) {
	if !n.planPush(p, targets, tc) {
		p.release()
		return
	}
	sends := len(p.targets)
	p.pending.Store(int32(sends))
	for i := 0; i < sends; i++ {
		t := p.targets[i]
		// A suspected (gray — slow or shedding) target gets its push on a
		// background goroutine so one wedged successor cannot stall the
		// remaining targets' pushes — or the maintenance pass driving this
		// call. Under the simulator (InlineMatchPush) everything stays inline:
		// event execution is single-threaded and timeouts cost virtual, not
		// wall, time.
		if !n.cfg.InlineMatchPush && n.susp.state(t.addr) == chord.PeerSuspect {
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.sendPush(p, t, tc)
			}()
			continue
		}
		n.sendPush(p, t, tc)
	}
}

// planPush stamps the next replica version and builds, in round p, what each
// target gets. A target gets the delta on the previous version only when all
// of these hold:
//   - the target acknowledged exactly the previous version of this
//     incarnation, in an ack that says it applies deltas;
//   - the work table had no structural change since the last push (no
//     split, merge, transfer, release or restore: the active groups'
//     prefixes, epochs, parents and root flags are the ones pushed), no
//     orphaned query awaits re-placement (orphans ride only in the full
//     state), and no query state changed outside a registration;
//   - the target's log stays smaller than the full push it rests on, or than
//     minDeltaLog when that push is smaller, once the delta is appended. A
//     holder's copy is then at most twice the state or the state plus
//     minDeltaLog (a target with no ack has no full push to rest on).
//
// It reports false when nothing is pushed.
func (n *Node) planPush(p *replicaPush, targets []string, tc spanRef) bool {
	// Snapshot and version are assigned under one mutex: two concurrent
	// pushes (a handler's post-registration push racing the load check)
	// must not stamp the older snapshot with the newer version, or the
	// receivers would keep the stale content as authoritative.
	n.repMu.Lock()
	// The structural-change count is read before the snapshot: a change
	// landing in between leaves the stored count behind the pushed shape,
	// which only makes the next push full.
	swaps := n.server.SnapshotSwaps()
	p.snaps = n.server.SnapshotActive(p.snaps[:0])
	n.mu.Lock()
	empty := len(p.snaps) == 0 && len(n.orphans) == 0
	if len(targets) == 0 || (empty && !n.mayPushEmpty) {
		// The records changed since the last push reach no holder, so the
		// next push cannot be a delta on top of it.
		n.repStale = n.repStale || len(n.repDirty) > 0
		n.repDirty = n.repDirty[:0]
		n.mu.Unlock()
		n.repMu.Unlock()
		return false
	}
	if !empty {
		n.mayPushEmpty = true
	}
	prev := n.repVersion
	n.repVersion++
	p.incarnation, p.version = n.incarnation, n.repVersion
	msg := replicateMsg{Origin: n.Addr(), Incarnation: p.incarnation, Version: p.version,
		TraceID: tc.TraceID, ParentSpan: tc.Parent, Hop: tc.Hop}
	canDelta := !n.repStale && len(n.orphans) == 0 && swaps == n.repSwaps
	if canDelta {
		delta := msg
		delta.Base = prev
		if delta.Groups, canDelta = n.deltaGroupsLocked(p); canDelta {
			p.delta = delta.MarshalWire(wirecodec.GetBuf())
			h, _ := scanReplicate(p.delta)
			p.section = len(h.Section)
		}
	}
	anyFull := false
	for _, addr := range targets {
		var a replicaAck
		if i := n.ackIndex(addr); i >= 0 {
			a = n.repAcks[i]
		}
		d := canDelta && a.incarnation == p.incarnation && a.version == prev && a.log+p.section < max(a.base, minDeltaLog)
		p.targets = append(p.targets, pushTarget{addr: addr, delta: d, ack: a})
		anyFull = anyFull || !d
	}
	if anyFull {
		msg.Groups, msg.Loose = n.fullStateLocked(p)
	}
	n.repSwaps = swaps
	n.repDirty = n.repDirty[:0]
	n.repStale = false
	n.mu.Unlock()
	n.repMu.Unlock()
	// The records are never modified once built, so the full payload is
	// encoded outside the locks.
	if anyFull {
		p.full = msg.MarshalWire(wirecodec.GetBuf())
	}
	return true
}

// minDeltaLog is the delta log a holder may keep on a full push smaller than
// it: one pooled buffer's worth, so a near-empty origin, whose full push is
// about as large as a one-record delta, still pushes deltas.
const minDeltaLog = 512

// fullStateLocked builds the group and loose records of the full state for
// the active groups in p.snaps, the groups in p's scratch. Each group lists
// its queries' stored records by region and then ID, shared rather than
// copied. Callers hold n.mu.
func (n *Node) fullStateLocked(p *replicaPush) (groups []replicaGroupRec, loose [][]byte) {
	// Sized for every stored query up front: one allocation at most, and no
	// append moves the records a group already slices.
	p.groups, p.recs = p.groups[:0], slices.Grow(p.recs[:0], len(n.queries))
	for _, s := range p.snaps {
		start := len(p.recs)
		n.engine.VisitInGroup(s.Group, func(q cq.Query) {
			if rec := n.queryRecordLocked(q); rec != nil {
				p.recs = append(p.recs, rec)
			}
		})
		p.groups = append(p.groups, replicaGroupRec{
			GroupValue: s.Group.Prefix.Value,
			GroupBits:  s.Group.Prefix.Bits,
			Parent:     string(s.Parent),
			IsRoot:     s.IsRoot,
			Epoch:      s.Epoch,
			Queries:    p.recs[start:len(p.recs):len(p.recs)],
		})
	}
	// Orphaned query placements are outside the table and engine, invisible
	// to the per-group snapshot — and gone with a crash — so they ride as
	// loose records.
	for i := range n.orphans {
		loose = append(loose, n.orphans[i].st.MarshalWire(nil))
	}
	return p.groups, loose
}

// deltaGroupsLocked builds the delta's group records in p's scratch: the
// records of the queries registered or re-subscribed since the last push,
// each under the header of the active group in p.snaps that holds it, the
// groups in the order their first record comes in. ok is false when a query
// cannot be sent as a record (gone from the engine, or under no group in
// p.snaps): the push must then be full. Callers hold n.mu.
func (n *Node) deltaGroupsLocked(p *replicaPush) (groups []replicaGroupRec, ok bool) {
	slices.Sort(n.repDirty)
	ids := slices.Compact(n.repDirty)
	p.groups, p.recs, p.owner = p.groups[:0], p.recs[:0], p.owner[:0]
	for _, id := range ids {
		q, found := n.engine.Get(id)
		if !found {
			return nil, false
		}
		ik, err := q.IdentifierKey(n.cfg.KeyBits)
		if err != nil {
			return nil, false
		}
		i := slices.IndexFunc(p.snaps, func(s core.GroupSnapshot) bool { return s.Group.Contains(ik) })
		rec := n.queryRecordLocked(q)
		if i < 0 || rec == nil {
			return nil, false
		}
		s := p.snaps[i]
		gi := slices.IndexFunc(p.groups, func(g replicaGroupRec) bool {
			return g.GroupValue == s.Group.Prefix.Value && g.GroupBits == s.Group.Prefix.Bits
		})
		if gi < 0 {
			gi = len(p.groups)
			p.groups = append(p.groups, replicaGroupRec{GroupValue: s.Group.Prefix.Value, GroupBits: s.Group.Prefix.Bits,
				Parent: string(s.Parent), IsRoot: s.IsRoot, Epoch: s.Epoch})
		}
		p.recs = append(p.recs, rec)
		p.owner = append(p.owner, gi)
	}
	// The records were staged in ID order; each group's run of them is
	// appended behind the staging area, group by group.
	for gi := range p.groups {
		start := len(p.recs)
		for j, owner := range p.owner {
			if owner == gi {
				p.recs = append(p.recs, p.recs[j])
			}
		}
		p.groups[gi].Queries = p.recs[start:len(p.recs):len(p.recs)]
	}
	return p.groups, true
}

// sendPush sends one target its push and records the acknowledgement; the
// round's last send releases it. A target that refused a delta gets one
// fallback full push at once, in a round of its own.
func (n *Node) sendPush(p *replicaPush, t pushTarget, tc spanRef) {
	payload, counter := p.full, &n.repFull
	if t.delta {
		payload, counter = p.delta, &n.repDelta
	}
	atomic.AddInt64(counter, 1)
	raw, err := n.caller.call(t.addr, TypeReplicateKeyGroup, payload)
	refused := n.noteAck(p, t, raw, err)
	wirecodec.PutBuf(raw) // the ack decodes into integers only
	if p.pending.Add(-1) == 0 {
		p.release()
	}
	if refused {
		atomic.AddInt64(&n.repRefused, 1)
		fallback := pushPool.Get().(*replicaPush)
		fallback.addrs = append(fallback.addrs, t.addr)
		n.push(fallback, fallback.addrs, tc)
	}
}

// noteAck records what a target acknowledged holding after a push and
// reports whether it refused a delta: it answered, but holds an older
// version than the delta's (or none). Any answer other than the pushed
// version, an answer from a holder that does not apply deltas, and any
// failed call leave the target unknown, so its next push is full.
func (n *Node) noteAck(p *replicaPush, t pushTarget, raw []byte, err error) (refused bool) {
	var ack replicateAck
	if err == nil {
		err = ack.UnmarshalWire(raw)
	}
	n.repMu.Lock()
	defer n.repMu.Unlock()
	i := n.ackIndex(t.addr)
	if err == nil && ack.Delta && ack.Incarnation == p.incarnation && ack.Version == p.version {
		a := replicaAck{target: t.addr, incarnation: p.incarnation, version: p.version, base: len(p.full)}
		if t.delta {
			a.base, a.log = t.ack.base, t.ack.log+p.section
		}
		if i >= 0 {
			n.repAcks[i] = a
		} else {
			n.repAcks = append(n.repAcks, a)
		}
		return false
	}
	if i >= 0 {
		n.repAcks = slices.Delete(n.repAcks, i, i+1)
	}
	return err == nil && t.delta && (ack.Incarnation < p.incarnation ||
		ack.Incarnation == p.incarnation && ack.Version < p.version)
}

// handleReplicate stores a peer's replica push — a full push replaces the
// stored copy unless it is older than what is already held (a delayed
// duplicate from before a crash-restart or a reordered retry), a delta
// appends to it when it is at the delta's base — and answers with the
// version now held: a refused delta's older one makes the origin fall back
// to a full push, and a duplicate or late delta finds the stored version at
// or past its own and changes nothing.
func (n *Node) handleReplicate(payload []byte) ([]byte, error) {
	sp := n.startPushSpan()
	// The whole push is validated now, so a malformed one never replaces a
	// good stored copy, but only its header is decoded: the records are read
	// again only on promotion or a recovery pull.
	h, err := scanReplicate(payload)
	if err != nil {
		return nil, err
	}
	sp.decoded(n, h.Trace)
	stored, ack := n.storeReplica(&h, payload)
	if sp.traced() {
		sp.finish(n, fmt.Sprintf("origin=%s base=%d groups=%d stored=%t", h.Origin, h.Base, h.Groups, stored))
	}
	ack.Delta = true
	return ack.MarshalWire(wirecodec.GetBuf()), nil
}

// pushSpan times a replica push that carries a sampled registration's trace
// context: the push is one hop of that registration's cross-node path.
type pushSpan struct {
	obs         Observer
	tc          spanRef
	codecStart  time.Time
	start       time.Time
	codecMicros int64
}

// startPushSpan reads the clock before the push is decoded, whenever an
// observer is installed (the trace context is known only after decoding).
func (n *Node) startPushSpan() pushSpan {
	sp := pushSpan{obs: n.obs.get()}
	if sp.obs != nil {
		sp.codecStart = n.cfg.Clock.Now()
	}
	return sp
}

// decoded ends the codec stage of a traced push.
func (sp *pushSpan) decoded(n *Node, tc spanRef) {
	if sp.obs == nil || tc.TraceID == 0 {
		sp.obs = nil
		return
	}
	sp.tc = tc
	sp.start = n.cfg.Clock.Now()
	sp.codecMicros = sp.start.Sub(sp.codecStart).Microseconds()
}

func (sp *pushSpan) traced() bool { return sp.obs != nil }

// finish emits the replica-push span.
func (sp *pushSpan) finish(n *Node, detail string) {
	n.emitSpan(sp.obs, Span{
		TraceID:       sp.tc.TraceID,
		SpanID:        n.nextSpanID(),
		Parent:        sp.tc.Parent,
		Hop:           sp.tc.Hop,
		Kind:          HopReplicaPush,
		Detail:        detail,
		CodecMicros:   sp.codecMicros,
		HandlerMicros: n.cfg.Clock.Now().Sub(sp.start).Microseconds(),
	})
}

// storeReplica applies one validated push, reporting whether it was stored
// (false: self/empty origin, stale version, or a delta not on the stored
// version) and the version held for the origin afterwards. A delta applies
// only to a stored set of the same incarnation at exactly its base version
// whose groups include every record's group at the record's epoch. payload
// lives in a pooled buffer the transport recycles after the handler returns,
// so a stored full push is cloned; a stale one is not.
func (n *Node) storeReplica(h *replicateHeader, payload []byte) (bool, replicateAck) {
	if len(h.Origin) == 0 || string(h.Origin) == n.Addr() {
		return false, replicateAck{}
	}
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	set := n.replicas[string(h.Origin)]
	switch {
	case h.Base > 0 && set == nil:
		return false, replicateAck{}
	case h.Base > 0:
		if h.Incarnation == set.incarnation {
			set.seen = now
		}
		if h.Incarnation != set.incarnation || h.Base != set.version || !set.holdsGroups(h.Section) {
			return false, set.ack()
		}
		set.log = append(set.log, h.Section...)
		set.version = h.Version
		return true, set.ack()
	case set != nil && (h.Incarnation < set.incarnation ||
		(h.Incarnation == set.incarnation && h.Version < set.version)):
		set.seen = now // stale content, but still proof the origin lives
		return false, set.ack()
	case set == nil:
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
	return true, set.ack()
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
		n.replicate(spanRef{})
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
		n.replicate(spanRef{})
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

// orphanQuery is query state whose home group is gone (the group's owner
// refused its hand-off, or the group turned out stale during recovery); it is
// re-placed through the standard depth resolution on subsequent load checks.
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
			reply, _, err = n.acceptOne(&req, nil, 0)
			if err != nil {
				return core.AcceptObjectResult{}, err
			}
		} else {
			raw, err := n.caller.call(string(owner), TypeAcceptObject, req.MarshalWire(nil))
			if err != nil {
				return core.AcceptObjectResult{}, err
			}
			err = reply.UnmarshalWire(raw)
			wirecodec.PutBuf(raw) // the decode copied its strings out
			if err != nil {
				return core.AcceptObjectResult{}, err
			}
		}
		return decodeAccept(&reply)
	}
	_, err = core.ResolveDepth(n.cfg.KeyBits, 0, probe)
	return err
}
