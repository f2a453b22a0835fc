package overlay

import (
	"fmt"

	"clash/internal/chord"
	"clash/internal/wirecodec"
)

// transportRPC implements chord.RPC by sending binary-framed requests through
// a node's resilient caller (per-class deadlines, suspicion feedback, retries
// where safe). Any transport failure surfaces as chord.ErrNodeDown so the
// chord maintenance logic treats it as a peer failure and repairs around it.
type transportRPC struct {
	c *caller
}

var _ chord.RPC = (*transportRPC)(nil)

func refToMsg(r chord.NodeRef) nodeRefMsg { return nodeRefMsg{Addr: r.Addr, ID: uint64(r.ID)} }
func msgToRef(m nodeRefMsg) chord.NodeRef { return chord.NodeRef{Addr: m.Addr, ID: chord.ID(m.ID)} }

// callFunc performs one logical exchange: a bare Transport.Call, or a
// caller.call that wraps it with deadlines and retries.
type callFunc func(addr, msgType string, payload []byte) ([]byte, error)

// callWith encodes req with the binary codec, performs the exchange through do
// and decodes the reply into resp (which may be nil for fire-and-forget
// replies). The request buffer comes from the codec pool, so the encode path
// does not allocate in steady state, and the pooled reply goes back to it
// once decoded: resp must copy what it keeps (every reply type decoded here,
// nodeRefMsg and core.AcceptBatchReplyMsg, copies its strings out).
func callWith(do callFunc, addr, msgType string, req, resp wireMsg) error {
	var payload []byte
	if req != nil {
		payload = marshalMsg(req)
		defer wirecodec.PutBuf(payload)
	}
	reply, err := do(addr, msgType, payload)
	if err != nil {
		return err
	}
	defer wirecodec.PutBuf(reply)
	if resp == nil {
		return nil
	}
	if err := resp.UnmarshalWire(reply); err != nil {
		return fmt.Errorf("overlay: decode %s reply: %w", msgType, err)
	}
	return nil
}

// call is callWith over a bare transport (the client-side path, which has no
// suspicion tracker).
func call(tr Transport, addr, msgType string, req, resp wireMsg) error {
	return callWith(tr.Call, addr, msgType, req, resp)
}

// call is the chord.RPC flavor of callWith: transport failures become
// chord.ErrNodeDown.
func (c *transportRPC) call(addr, msgType string, req, resp wireMsg) error {
	if err := callWith(c.c.call, addr, msgType, req, resp); err != nil {
		if IsRemote(err) {
			return err
		}
		return fmt.Errorf("%w: %s (%v)", chord.ErrNodeDown, addr, err)
	}
	return nil
}

// FindSuccessor implements chord.RPC.
func (c *transportRPC) FindSuccessor(ref chord.NodeRef, id chord.ID) (chord.NodeRef, error) {
	var resp nodeRefMsg
	if err := c.call(ref.Addr, TypeFindSuccessor, &findSuccessorMsg{ID: uint64(id)}, &resp); err != nil {
		return chord.NodeRef{}, err
	}
	return msgToRef(resp), nil
}

// Successor implements chord.RPC.
func (c *transportRPC) Successor(ref chord.NodeRef) (chord.NodeRef, error) {
	var resp nodeRefMsg
	if err := c.call(ref.Addr, TypeSuccessor, nil, &resp); err != nil {
		return chord.NodeRef{}, err
	}
	return msgToRef(resp), nil
}

// Predecessor implements chord.RPC.
func (c *transportRPC) Predecessor(ref chord.NodeRef) (chord.NodeRef, error) {
	var resp nodeRefMsg
	if err := c.call(ref.Addr, TypePredecessor, nil, &resp); err != nil {
		return chord.NodeRef{}, err
	}
	return msgToRef(resp), nil
}

// Notify implements chord.RPC.
func (c *transportRPC) Notify(ref chord.NodeRef, candidate chord.NodeRef) error {
	return c.call(ref.Addr, TypeNotify, &notifyMsg{Candidate: refToMsg(candidate)}, nil)
}

// Ping implements chord.RPC.
func (c *transportRPC) Ping(ref chord.NodeRef) error {
	return c.call(ref.Addr, TypePing, nil, nil)
}
