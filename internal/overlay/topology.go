package overlay

import (
	"fmt"

	"clash/internal/wirecodec"
)

// Topology RPC: the hub's /topology endpoint walks the ring by asking each
// node for a TopoNode snapshot (TypeTopology) and following successor
// pointers until the walk closes. The snapshot is intentionally lighter than
// the full Status document — no counters, transport stats or suspicion
// table — so a fanout across a large ring stays cheap.

// TopoGroup is one active key group in a topology snapshot.
type TopoGroup struct {
	Group string `json:"group"`
	// Depth is the group's depth in the split tree (prefix length).
	Depth int `json:"depth"`
	// Parent is the server holding the group's parent ("" for roots).
	Parent string `json:"parent,omitempty"`
	// Epoch is the group's ownership epoch.
	Epoch uint64 `json:"epoch,omitempty"`
	// Load is the group's load fraction at the last load check.
	Load float64 `json:"load"`
	// Queries is how many continuous queries the group stores.
	Queries int `json:"queries"`
}

// TopoNode is one node's topology snapshot.
type TopoNode struct {
	Addr        string      `json:"addr"`
	ID          uint64      `json:"id"`
	Predecessor string      `json:"predecessor,omitempty"`
	Successors  []string    `json:"successors"`
	TotalLoad   float64     `json:"totalLoad"`
	Queries     int         `json:"queries"`
	Draining    bool        `json:"draining,omitempty"`
	Groups      []TopoGroup `json:"groups,omitempty"`
	// ReplicaOrigins lists the peers whose key-group replicas this node holds.
	ReplicaOrigins []string `json:"replicaOrigins,omitempty"`
}

// MarshalWire implements wireMsg.
func (m *TopoGroup) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendString(b, m.Group)
	b = wirecodec.AppendInt(b, m.Depth)
	b = wirecodec.AppendString(b, m.Parent)
	b = wirecodec.AppendUvarint(b, m.Epoch)
	b = wirecodec.AppendFloat64(b, m.Load)
	return wirecodec.AppendInt(b, m.Queries)
}

// UnmarshalWire implements wireMsg.
func (m *TopoGroup) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Group = r.String()
	m.Depth = r.Int()
	m.Parent = r.String()
	m.Epoch = r.Uvarint()
	m.Load = r.Float64()
	m.Queries = r.Int()
	return r.Err()
}

// MarshalWire implements wireMsg. Each group travels as a length-prefixed
// record (the nested append-only evolution pattern).
func (m *TopoNode) MarshalWire(b []byte) []byte {
	b = wirecodec.AppendString(b, m.Addr)
	b = wirecodec.AppendUvarint(b, m.ID)
	b = wirecodec.AppendString(b, m.Predecessor)
	b = wirecodec.AppendInt(b, len(m.Successors))
	for _, s := range m.Successors {
		b = wirecodec.AppendString(b, s)
	}
	b = wirecodec.AppendFloat64(b, m.TotalLoad)
	b = wirecodec.AppendInt(b, m.Queries)
	b = wirecodec.AppendBool(b, m.Draining)
	b = wirecodec.AppendInt(b, len(m.Groups))
	scratch := wirecodec.GetBuf()
	for i := range m.Groups {
		scratch = m.Groups[i].MarshalWire(scratch[:0])
		b = wirecodec.AppendBytes(b, scratch)
	}
	wirecodec.PutBuf(scratch)
	b = wirecodec.AppendInt(b, len(m.ReplicaOrigins))
	for _, o := range m.ReplicaOrigins {
		b = wirecodec.AppendString(b, o)
	}
	return b
}

// UnmarshalWire implements wireMsg.
func (m *TopoNode) UnmarshalWire(data []byte) error {
	r := wirecodec.NewReader(data)
	m.Addr = r.String()
	m.ID = r.Uvarint()
	m.Predecessor = r.String()
	n := r.Int()
	if r.Err() == nil && n > r.Len() {
		return fmt.Errorf("%w: %d successors in %d bytes", wirecodec.ErrInvalid, n, r.Len())
	}
	m.Successors = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Successors = append(m.Successors, r.String())
	}
	m.TotalLoad = r.Float64()
	m.Queries = r.Int()
	m.Draining = r.Bool()
	n = r.Int()
	if r.Err() == nil && n > r.Len() {
		return fmt.Errorf("%w: %d groups in %d bytes", wirecodec.ErrInvalid, n, r.Len())
	}
	m.Groups = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := r.Bytes()
		if r.Err() != nil {
			break
		}
		var g TopoGroup
		if err := g.UnmarshalWire(rec); err != nil {
			return err
		}
		m.Groups = append(m.Groups, g)
	}
	n = r.Int()
	if r.Err() == nil && n > r.Len() {
		return fmt.Errorf("%w: %d origins in %d bytes", wirecodec.ErrInvalid, n, r.Len())
	}
	m.ReplicaOrigins = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		m.ReplicaOrigins = append(m.ReplicaOrigins, r.String())
	}
	return r.Err()
}

// TopoInfo builds this node's topology snapshot.
func (n *Node) TopoInfo() TopoNode {
	succs := n.chord.Successors()
	succAddrs := make([]string, len(succs))
	for i, s := range succs {
		succAddrs[i] = s.Addr
	}
	loads := n.server.GroupLoads()
	info := TopoNode{
		Addr:        n.Addr(),
		ID:          uint64(n.chord.Self().ID),
		Predecessor: n.chord.PredecessorRef().Addr,
		Successors:  succAddrs,
		TotalLoad:   n.server.TotalLoad(),
		Queries:     n.engine.Len(),
		Draining:    n.draining.Load(),
	}
	for _, e := range n.server.Entries() {
		if !e.Active {
			continue
		}
		info.Groups = append(info.Groups, TopoGroup{
			Group:   e.Group.String(),
			Depth:   e.Group.Depth(),
			Parent:  string(e.Parent),
			Epoch:   e.Epoch,
			Load:    loads[e.Group.String()],
			Queries: n.engine.CountInGroup(e.Group),
		})
	}
	n.mu.Lock()
	origins := sortedKeys(n.replicas)
	n.mu.Unlock()
	info.ReplicaOrigins = origins
	return info
}

// handleTopology answers TypeTopology with this node's snapshot.
func (n *Node) handleTopology([]byte) ([]byte, error) {
	info := n.TopoInfo()
	return info.MarshalWire(nil), nil
}

// FetchTopo asks the node at addr for its topology snapshot through this
// node's resilient caller (the hub's ring-walk primitive). Asking for the
// node's own address answers locally without a network round trip.
func (n *Node) FetchTopo(addr string) (TopoNode, error) {
	if addr == n.Addr() {
		return n.TopoInfo(), nil
	}
	raw, err := n.caller.call(addr, TypeTopology, nil)
	if err != nil {
		return TopoNode{}, err
	}
	var info TopoNode
	if err := info.UnmarshalWire(raw); err != nil {
		return TopoNode{}, err
	}
	return info, nil
}
