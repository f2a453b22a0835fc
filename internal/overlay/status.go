package overlay

import (
	"sync/atomic"

	"clash/internal/core"
)

// Status is a JSON-marshalable snapshot of one overlay node, served by
// clashd's HTTP status endpoint and by the TypeStatus wire request.
type Status struct {
	// Addr is the node's transport address / identity.
	Addr string `json:"addr"`
	// ChordID is the node's position on the identifier circle.
	ChordID uint64 `json:"chordId"`
	// Predecessor is the current predecessor address ("" when unknown).
	Predecessor string `json:"predecessor,omitempty"`
	// Successors is the successor list, nearest first.
	Successors []string `json:"successors"`
	// ActiveGroups lists the key groups this node currently manages.
	ActiveGroups []string `json:"activeGroups"`
	// TotalLoad is the node's load fraction at the last load check.
	TotalLoad float64 `json:"totalLoad"`
	// Queries is the number of continuous queries stored here.
	Queries int `json:"queries"`
	// OrphanQueries counts query states awaiting re-placement after their
	// group was dropped or turned out stale.
	OrphanQueries int `json:"orphanQueries"`
	// OrphanDrops counts orphaned queries dropped after exhausting their
	// placement budget.
	OrphanDrops int64 `json:"orphanDrops"`
	// ReplicaOrigins / ReplicaGroups describe the peer key-group replicas
	// this node holds for crash recovery.
	ReplicaOrigins int `json:"replicaOrigins"`
	ReplicaGroups  int `json:"replicaGroups"`
	// ReplicaPushes counts the replica pushes this node sent, by kind, and
	// the delta pushes its targets refused.
	ReplicaPushes ReplicaPushStats `json:"replicaPushes"`
	// MatchDrops counts match notifications that were refused or failed to
	// write (see Node.MatchDrops).
	MatchDrops int64 `json:"matchDrops"`
	// Draining reports admin drain mode (the node is shedding its groups).
	Draining bool `json:"draining,omitempty"`
	// Counters are the cumulative protocol counters.
	Counters core.Counters `json:"counters"`
	// Transport are the node transport's frame/byte/connection counters
	// (including call timeouts, policy retries and shed requests).
	Transport TransportStats `json:"transport"`
	// Suspicion lists every peer currently carrying a failure streak in the
	// node's failure detector, with its suspicion score and latency EWMA.
	Suspicion map[string]SuspicionStat `json:"suspicion,omitempty"`
}

// Status captures the node's current state.
func (n *Node) Status() Status {
	succs := n.chord.Successors()
	succAddrs := make([]string, len(succs))
	for i, s := range succs {
		succAddrs[i] = s.Addr
	}
	groups := n.server.ActiveGroups()
	labels := make([]string, len(groups))
	for i, g := range groups {
		labels[i] = g.String()
	}
	n.mu.Lock()
	orphans := len(n.orphans)
	n.mu.Unlock()
	repOrigins, repGroups := n.replicaCounts()
	return Status{
		Addr:           n.Addr(),
		ChordID:        uint64(n.chord.Self().ID),
		Predecessor:    n.chord.PredecessorRef().Addr,
		Successors:     succAddrs,
		ActiveGroups:   labels,
		TotalLoad:      n.server.TotalLoad(),
		Queries:        n.engine.Len(),
		OrphanQueries:  orphans,
		OrphanDrops:    atomic.LoadInt64(&n.orphanDrops),
		ReplicaOrigins: repOrigins,
		ReplicaGroups:  repGroups,
		ReplicaPushes:  n.ReplicaPushes(),
		MatchDrops:     atomic.LoadInt64(&n.matchDrops),
		Draining:       n.draining.Load(),
		Counters:       n.server.Counters(),
		Transport:      n.tr.Stats(),
		Suspicion:      n.susp.snapshot(),
	}
}
