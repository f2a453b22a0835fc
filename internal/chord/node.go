package chord

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNodeDown is returned by RPC implementations when the target node is
// unreachable.
var ErrNodeDown = errors.New("chord: node unreachable")

// NodeRef identifies a remote protocol node: its address (how to reach it)
// and its position on the circle.
type NodeRef struct {
	Addr string `json:"addr"`
	ID   ID     `json:"id"`
}

// IsZero reports whether the reference is unset.
func (n NodeRef) IsZero() bool { return n.Addr == "" }

// RPC is the messaging surface a protocol node needs to talk to its peers.
// internal/overlay provides a transport-backed implementation; LocalNetwork
// provides an in-memory one for tests.
type RPC interface {
	// FindSuccessor asks the node at ref to resolve the successor of id.
	FindSuccessor(ref NodeRef, id ID) (NodeRef, error)
	// Successor asks the node at ref for its current immediate successor.
	// Unlike FindSuccessor it involves no routing — it reads one pointer —
	// so chains of Successor calls stay inside the ring ref belongs to even
	// when finger tables are polluted with members of a diverged ring.
	Successor(ref NodeRef) (NodeRef, error)
	// Predecessor asks the node at ref for its current predecessor (which
	// may be the zero NodeRef).
	Predecessor(ref NodeRef) (NodeRef, error)
	// Notify tells the node at ref that candidate might be its predecessor.
	Notify(ref NodeRef, candidate NodeRef) error
	// Ping checks liveness of the node at ref.
	Ping(ref NodeRef) error
}

// SuccessorListLen is the number of successors each node tracks for fault
// tolerance.
const SuccessorListLen = 4

// PeerState is a health oracle's verdict about a peer, distinguishing the
// gray zone (slow but probably alive) from definite death. See
// SetHealthOracle.
type PeerState int

const (
	// PeerUnknown means the oracle has no decisive evidence; maintenance
	// treats a failed call as a definite failure (the pre-oracle behavior).
	PeerUnknown PeerState = iota
	// PeerSuspect means the peer looks slow — recent deadline expiries but
	// no hard evidence of death. Maintenance keeps suspect ring neighbors
	// for the round instead of dropping them on one failed call, so a slow
	// node is not churned out of the ring by a single timeout.
	PeerSuspect
	// PeerDead means the peer is considered gone (hard unreachability, or a
	// long streak of timeouts); maintenance repairs around it immediately.
	PeerDead
)

// Node is a Chord protocol node. It keeps a finger table, a successor list
// and a predecessor pointer, and exposes the classic join/stabilize/notify/
// fix-fingers operations. Node has no internal goroutines: the owner calls
// Stabilize and FixFingers periodically (the overlay does this from its
// maintenance loop), per the repository convention that background work is
// owned by the caller.
type Node struct {
	mu    sync.RWMutex
	self  NodeRef
	space Space
	rpc   RPC

	predecessor NodeRef
	successors  []NodeRef // successors[0] is the immediate successor
	fingers     []NodeRef // fingers[i] = successor(self.ID + 2^i)
	nextFinger  int

	// succListener is invoked (outside the lock) whenever the successor
	// list's content changes; lastNotified is the list it last saw.
	succListener func([]NodeRef)
	lastNotified []NodeRef

	// healthOracle, when installed, classifies a peer after a failed
	// maintenance call; see SetHealthOracle.
	healthOracle func(addr string) PeerState
}

// NewNode creates a node for the given address. The node starts as a
// single-member ring (its own successor).
func NewNode(addr string, space Space, rpc RPC) *Node {
	self := NodeRef{Addr: addr, ID: space.HashString(addr)}
	n := &Node{
		self:       self,
		space:      space,
		rpc:        rpc,
		successors: make([]NodeRef, 1, SuccessorListLen),
		fingers:    make([]NodeRef, space.Bits),
	}
	n.successors[0] = self
	for i := range n.fingers {
		n.fingers[i] = self
	}
	return n
}

// Self returns the node's own reference.
func (n *Node) Self() NodeRef { return n.self }

// Successor returns the node's current immediate successor.
func (n *Node) Successor() NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.successors[0]
}

// PredecessorRef returns the node's current predecessor (possibly zero).
func (n *Node) PredecessorRef() NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.predecessor
}

// Successors returns a copy of the successor list.
func (n *Node) Successors() []NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]NodeRef, len(n.successors))
	copy(out, n.successors)
	return out
}

// AppendSuccessors appends the successor list to dst and returns the
// extended slice.
func (n *Node) AppendSuccessors(dst []NodeRef) []NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append(dst, n.successors...)
}

// SetSuccessorsListener installs fn to be called with a copy of the successor
// list every time its content changes (after joins, stabilization rounds and
// successor failures). The callback runs on whatever goroutine mutated the
// list, with no node lock held, so it may call back into the node. The
// overlay uses it to re-push key-group replicas when the replica targets —
// the first k successors — change under ring churn.
func (n *Node) SetSuccessorsListener(fn func([]NodeRef)) {
	n.mu.Lock()
	n.succListener = fn
	n.mu.Unlock()
}

// SetHealthOracle installs a failure-detector callback maintenance consults
// when a call to a ring neighbor fails: a PeerSuspect verdict keeps the
// neighbor for the round (the caller's next attempt runs with an escalated
// deadline), while PeerDead or PeerUnknown repairs around it immediately —
// with no oracle installed every failure is treated as definite, preserving
// the classic drop-on-first-failure behavior. The overlay wires its
// suspicion tracker here so chord's ring repair and the RPC layer's latency
// evidence agree on who is dead.
func (n *Node) SetHealthOracle(fn func(addr string) PeerState) {
	n.mu.Lock()
	n.healthOracle = fn
	n.mu.Unlock()
}

// peerHealth consults the oracle; without one every peer is PeerUnknown.
func (n *Node) peerHealth(addr string) PeerState {
	n.mu.RLock()
	fn := n.healthOracle
	n.mu.RUnlock()
	if fn == nil {
		return PeerUnknown
	}
	return fn(addr)
}

// notifySuccessorsChanged compares the successor list against the last
// notified snapshot and invokes the listener outside the lock if it changed.
func (n *Node) notifySuccessorsChanged() {
	n.mu.Lock()
	fn := n.succListener
	if fn == nil {
		n.mu.Unlock()
		return
	}
	changed := len(n.successors) != len(n.lastNotified)
	if !changed {
		for i := range n.successors {
			if n.successors[i] != n.lastNotified[i] {
				changed = true
				break
			}
		}
	}
	if !changed {
		n.mu.Unlock()
		return
	}
	snap := make([]NodeRef, len(n.successors))
	copy(snap, n.successors)
	n.lastNotified = snap
	n.mu.Unlock()
	fn(snap)
}

// Join makes the node join the ring that bootstrap belongs to. Joining a zero
// bootstrap is a no-op (the node stays a singleton ring). The finger table is
// reset to the new successor: entries surviving from a previous membership
// may point into a ring this node is leaving behind, and a single stale
// finger is enough to route future lookups — including its own fix-finger
// refreshes — back into the old ring.
func (n *Node) Join(bootstrap NodeRef) error {
	if bootstrap.IsZero() || bootstrap.Addr == n.self.Addr {
		return nil
	}
	succ, err := n.rpc.FindSuccessor(bootstrap, n.self.ID)
	if err != nil {
		return fmt.Errorf("join via %s: %w", bootstrap.Addr, err)
	}
	if succ.Addr == n.self.Addr {
		// The ring still lists this address (a restart before the old
		// membership was detected dead); resolve our slot's true successor
		// without routing through our own reset state.
		return n.rejoinOwnSlot(bootstrap)
	}
	n.adopt(succ)
	return nil
}

// rejoinOwnSlot resolves this node's successor when the ring still lists the
// node's own address (a crash-restart that beat failure detection). Routing a
// lookup is useless — it lands back on our reset state — but the member just
// after our slot still names us as its predecessor, so a backward walk over
// predecessor pointers finds it without touching a finger table. If the walk
// is cut short (a cleared predecessor mid-ring), the last member reached is
// adopted instead: any in-ring successor pointer converges to the true one
// through Stabilize's predecessor-chain absorption.
func (n *Node) rejoinOwnSlot(contact NodeRef) error {
	p := contact
	visited := map[string]bool{contact.Addr: true}
	for i := 0; i < maxChainHops; i++ {
		q, err := n.rpc.Predecessor(p)
		if err != nil || q.IsZero() || q.Addr == p.Addr {
			break
		}
		if q.Addr == n.self.Addr {
			// p's predecessor is us: p is our slot's successor.
			n.adopt(p)
			return nil
		}
		if visited[q.Addr] {
			// Lapped the ring without finding a member naming us as
			// predecessor (our death was already absorbed): stop — the
			// fallback adoption below still lands inside the ring.
			break
		}
		visited[q.Addr] = true
		p = q
	}
	if p.Addr == n.self.Addr || p.Addr == "" {
		return fmt.Errorf("rejoin own slot via %s: no successor found", contact.Addr)
	}
	n.adopt(p)
	return nil
}

// maxChainHops bounds a JoinChain successor walk (a ring cannot meaningfully
// exceed this membership in-process).
const maxChainHops = 1 << 20

// JoinChain joins the ring bootstrap belongs to by walking its successor
// pointers until it finds the arc covering this node's identifier, then
// adopting that arc's endpoint as successor. The walk costs O(ring) hops
// where Join costs O(log ring), but it cannot be diverted: successor chains
// stay inside the contact's ring no matter how polluted finger tables are,
// which makes JoinChain the correct reintegration path after a partition has
// split the overlay into parallel self-consistent rings (Zave's analysis of
// Chord correctness — membership operations must not trust fingers).
func (n *Node) JoinChain(bootstrap NodeRef) error {
	if bootstrap.IsZero() || bootstrap.Addr == n.self.Addr {
		return nil
	}
	cur := bootstrap
	for i := 0; i < maxChainHops; i++ {
		// A couple of per-hop retries ride out transient message loss (one
		// lost frame must not abort a walk hundreds of hops long); a hop
		// onto a genuinely dead node still fails fast.
		var next NodeRef
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if next, err = n.rpc.Successor(cur); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("join chain via %s: %w", cur.Addr, err)
		}
		if next.IsZero() {
			return fmt.Errorf("join chain via %s: chain broke at %s", bootstrap.Addr, cur.Addr)
		}
		if next.Addr == n.self.Addr {
			// The ring still lists this address (restart before the old
			// membership aged out): resolve our slot's successor by the
			// predecessor walk, which stays inside cur's ring.
			return n.rejoinOwnSlot(cur)
		}
		if Between(cur.ID, next.ID, n.self.ID) || next.Addr == bootstrap.Addr {
			// Our identifier falls on the (cur, next] arc — next is our
			// successor. A full wrap back to the bootstrap without a match
			// can only mean an inconsistent walk snapshot; adopting the
			// bootstrap's successor is still inside its ring and the next
			// stabilization round tightens it.
			n.adopt(next)
			return nil
		}
		cur = next
	}
	return fmt.Errorf("join chain via %s: no arc found in %d hops", bootstrap.Addr, maxChainHops)
}

// adopt installs succ as the sole successor, clears the predecessor and
// resets the finger table for a fresh membership.
func (n *Node) adopt(succ NodeRef) {
	n.mu.Lock()
	n.predecessor = NodeRef{}
	n.successors = n.successors[:1]
	n.successors[0] = succ
	for i := range n.fingers {
		n.fingers[i] = succ
	}
	n.mu.Unlock()
	n.notifySuccessorsChanged()
}

// FindSuccessor resolves the successor of id, forwarding through the finger
// table as needed. It is both the local lookup entry point and the handler
// for remote FindSuccessor RPCs.
func (n *Node) FindSuccessor(id ID) (NodeRef, error) {
	n.mu.RLock()
	succ := n.successors[0]
	self := n.self
	n.mu.RUnlock()

	if Between(self.ID, succ.ID, id) {
		return succ, nil
	}
	next := n.closestPrecedingNode(id)
	if next.Addr == self.Addr {
		return succ, nil
	}
	res, err := n.rpc.FindSuccessor(next, id)
	if err != nil {
		// Fall back to the successor chain when a finger is stale.
		if succ.Addr != self.Addr {
			return n.rpc.FindSuccessor(succ, id)
		}
		return NodeRef{}, err
	}
	return res, nil
}

// closestPrecedingNode returns the finger most closely preceding id.
func (n *Node) closestPrecedingNode(id ID) NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for i := len(n.fingers) - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f.IsZero() {
			continue
		}
		if BetweenOpen(n.self.ID, id, f.ID) {
			return f
		}
	}
	return n.self
}

// stabilizeWalkLimit bounds how many interposed nodes one Stabilize round
// adopts while walking its successor's predecessor chain back toward itself.
const stabilizeWalkLimit = 32

// Stabilize runs one round of Chord's stabilization: it learns about nodes
// that have joined between itself and its successor, repairs a failed
// successor using the successor list, and notifies the successor of its own
// existence.
//
// Unlike textbook chord (which adopts succ.predecessor once, converging one
// hop per round), the predecessor chain is walked back toward this node up to
// stabilizeWalkLimit steps, so a whole batch of nodes that joined — or
// rejoined after a crash or partition — between us and our successor is
// absorbed in a single round. Mass-churn recovery time drops from O(gap)
// rounds to O(gap / limit).
func (n *Node) Stabilize() error {
	defer n.notifySuccessorsChanged()
	n.mu.RLock()
	succ := n.successors[0]
	self := n.self
	n.mu.RUnlock()

	if succ.Addr == self.Addr {
		// Singleton with a live notifier: recover a *forward* edge by asking
		// the predecessor — the one contact we still have — to look up our
		// true successor in its ring. Adopting the predecessor itself (the
		// textbook shortcut) plants a backward edge when the node decayed to
		// a singleton mid-ring, and backward edges corrupt the ring beyond
		// what stabilization can repair: the wrongly-bypassed nodes and
		// their notify targets lock into stable wrong successor/predecessor
		// pairs. The lookup degenerates to the predecessor only in the
		// two-node ring, where that is the correct successor.
		if pred := n.PredecessorRef(); !pred.IsZero() && pred.Addr != self.Addr {
			target, err := n.rpc.FindSuccessor(pred, n.space.Add(self.ID, 1))
			switch {
			case err != nil || target.IsZero():
				// Unreachable or confused predecessor: stay singleton; the
				// overlay re-joins through its repair contact.
			case target.Addr == self.Addr:
				// The predecessor's ring still lists us as its successor: a
				// two-node ring, close it.
				n.mu.Lock()
				n.successors[0] = pred
				n.mu.Unlock()
				succ = pred
			default:
				n.mu.Lock()
				n.successors[0] = target
				n.mu.Unlock()
				succ = target
			}
		}
	} else {
		if err := n.rpc.Ping(succ); err != nil {
			if n.peerHealth(succ.Addr) == PeerSuspect {
				// Slow, not dead: keep the successor and let this round end;
				// the next ping runs with an escalated deadline.
				return nil
			}
			n.dropSuccessor(succ)
			return nil
		}
		for i := 0; i < stabilizeWalkLimit; i++ {
			pred, err := n.rpc.Predecessor(succ)
			if err != nil || pred.IsZero() || !BetweenOpen(self.ID, succ.ID, pred.ID) {
				break
			}
			if n.peerHealth(pred.Addr) == PeerDead {
				// The candidate can apparently reach our successor (it
				// notified it) but our own calls to it keep failing — the
				// asymmetric gray case. Adopting it would wedge the ring on
				// a successor we cannot talk to; keep the current one.
				break
			}
			n.mu.Lock()
			n.successors[0] = pred
			n.mu.Unlock()
			succ = pred
		}
	}

	if succ.Addr != self.Addr {
		if err := n.rpc.Notify(succ, self); err != nil {
			if n.peerHealth(succ.Addr) == PeerSuspect {
				return nil
			}
			n.dropSuccessor(succ)
			return nil
		}
	}
	n.refreshSuccessorList()
	return nil
}

// dropSuccessor removes a failed successor, promoting the next entry in the
// successor list (or falling back to self for a singleton ring).
func (n *Node) dropSuccessor(failed NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.successors) > 0 && n.successors[0].Addr == failed.Addr {
		n.successors = n.successors[1:]
	}
	if len(n.successors) == 0 {
		n.successors = append(n.successors, n.self)
	}
}

// refreshSuccessorList rebuilds the successor list by walking successor
// pointers.
func (n *Node) refreshSuccessorList() {
	n.mu.RLock()
	self := n.self
	cur := n.successors[0]
	n.mu.RUnlock()

	list := make([]NodeRef, 0, SuccessorListLen)
	list = append(list, cur)
	for len(list) < SuccessorListLen && cur.Addr != self.Addr {
		next, err := n.rpc.FindSuccessor(cur, n.space.Add(cur.ID, 1))
		if err != nil || next.IsZero() || next.Addr == cur.Addr {
			break
		}
		list = append(list, next)
		cur = next
	}
	n.mu.Lock()
	n.successors = list
	n.mu.Unlock()
}

// Notify handles a remote node's claim to be our predecessor.
func (n *Node) Notify(candidate NodeRef) {
	if n.peerHealth(candidate.Addr) == PeerDead {
		// The candidate reached us, but our calls to it keep failing
		// (asymmetric partition). Installing it as predecessor would
		// advertise it to our other neighbors through their stabilize
		// walks and poison the ring with an address only one direction
		// can use. Ignore the claim until our own calls recover.
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.predecessor.IsZero() || BetweenOpen(n.predecessor.ID, n.self.ID, candidate.ID) {
		n.predecessor = candidate
	}
}

// CheckPredecessor clears the predecessor pointer if it no longer responds.
func (n *Node) CheckPredecessor() {
	pred := n.PredecessorRef()
	if pred.IsZero() || pred.Addr == n.self.Addr {
		return
	}
	if err := n.rpc.Ping(pred); err != nil {
		if n.peerHealth(pred.Addr) == PeerSuspect {
			// Slow, not dead: keep the predecessor (clearing it would make
			// OwnerOf claim ownership of the suspect's arc).
			return
		}
		n.mu.Lock()
		if n.predecessor.Addr == pred.Addr {
			n.predecessor = NodeRef{}
		}
		n.mu.Unlock()
	}
}

// FixFingers refreshes one finger-table entry per call, cycling through the
// table (Chord's fix_fingers).
func (n *Node) FixFingers() error {
	n.mu.Lock()
	i := n.nextFinger
	n.nextFinger = (n.nextFinger + 1) % len(n.fingers)
	start := n.space.Add(n.self.ID, uint64(1)<<uint(i))
	n.mu.Unlock()

	succ, err := n.FindSuccessor(start)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.fingers[i] = succ
	n.mu.Unlock()
	return nil
}

// FixAllFingers refreshes the whole finger table (useful in tests and right
// after join).
func (n *Node) FixAllFingers() error {
	for i := 0; i < n.space.Bits; i++ {
		if err := n.FixFingers(); err != nil {
			return err
		}
	}
	return nil
}

// OwnerOf reports whether this node currently owns hash point id, i.e. id
// lies in (predecessor, self].
func (n *Node) OwnerOf(id ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.predecessor.IsZero() {
		// Without a predecessor we can only be sure for our own point.
		return id == n.self.ID || n.successors[0].Addr == n.self.Addr
	}
	return Between(n.predecessor.ID, n.self.ID, id)
}
