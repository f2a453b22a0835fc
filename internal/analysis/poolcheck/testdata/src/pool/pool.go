// Package pool exercises the pooled-buffer retention rules.
package pool

import "wirecodec"

type server struct {
	stash   []byte
	history [][]byte
	outbox  chan []byte
}

var global [][]byte

// handleRequest is a handler by name: its []byte parameter is a pooled frame
// payload owned by the transport.
func handleRequest(s *server, msgType string, payload []byte) ([]byte, error) {
	s.stash = payload                      // want `pooled buffer payload stored into s\.stash`
	s.stash = payload[4:]                  // want `pooled buffer payload stored into s\.stash`
	s.history = append(s.history, payload) // want `pooled buffer payload appended to long-lived slice s\.history`
	global = append(global, payload)       // want `pooled buffer payload appended to long-lived slice global`
	s.outbox <- payload                    // want `pooled buffer payload sent on a channel`
	go func() {
		use(payload) // want `pooled buffer payload captured by a spawned goroutine`
	}()
	go use(payload) // want `pooled buffer payload passed to a spawned goroutine`
	return nil, nil
}

// handleCopies shows every sanctioned way out: explicit copies, spreads and
// returns are not escapes.
func handleCopies(s *server, payload []byte) ([]byte, error) {
	s.stash = append([]byte(nil), payload...) // copy
	s.history = append(s.history, append([]byte(nil), payload...))
	name := string(payload) // string conversion copies
	_ = name
	local := payload // alias: tracked, but a local is fine
	use(local)
	reply := wirecodec.GetBuf()
	reply = append(reply, payload...) // contents copied into the reply
	return reply, nil                 // ownership transfer per the Handler contract
}

// getBufEscapes tracks wirecodec.GetBuf results through local aliases in any
// function, handler-named or not.
func getBufEscapes(s *server) {
	buf := wirecodec.GetBuf()
	buf = append(buf, 1, 2, 3) // still the pooled buffer
	s.stash = buf              // want `pooled buffer buf stored into s\.stash`
	resliced := buf[:2]
	s.stash = resliced // want `pooled buffer resliced stored into s\.stash`
	fresh := append([]byte(nil), buf...)
	s.stash = fresh // copy: fine
	wirecodec.PutBuf(buf)
}

// reassignment unlinks the name from the pool.
func reassigned(s *server) {
	buf := wirecodec.GetBuf()
	wirecodec.PutBuf(buf)
	buf = make([]byte, 8)
	s.stash = buf // fresh allocation: fine
}

// suppressed hands ownership off deliberately, with the mandatory reason.
func suppressedHandoff(s *server) {
	buf := wirecodec.GetBuf()
	//clashvet:ignore poolcheck writer loop owns queued buffers and recycles them after flush
	s.outbox <- buf
}

func badDirective(s *server) {
	buf := wirecodec.GetBuf()
	/* want `malformed //clashvet:ignore directive: missing reason` */ //clashvet:ignore poolcheck
	s.outbox <- buf                                                    // want `pooled buffer buf sent on a channel`
}

// transport stands in for overlay.Transport: Call returns its reply in a
// pooled buffer the caller may recycle.
type transport interface {
	Call(addr, msgType string, payload []byte) ([]byte, error)
}

// recycledReply hands its Call reply back to the pool, so the reply is
// pooled: a sub-slice of it kept, sent or captured past the call is flagged.
func recycledReply(s *server, tr transport) {
	reply, err := tr.Call("peer", "ping", nil)
	if err != nil {
		return
	}
	s.stash = reply[2:]   // want `pooled buffer reply stored into s\.stash`
	s.outbox <- reply[:1] // want `pooled buffer reply sent on a channel`
	go func() {
		use(reply) // want `pooled buffer reply captured by a spawned goroutine`
	}()
	s.history = append(s.history, append([]byte(nil), reply...)) // copy: fine
	wirecodec.PutBuf(reply)
}

// keptReply never recycles its reply, which the caller then owns outright:
// keeping it is fine.
func keptReply(s *server, tr transport) {
	reply, _ := tr.Call("peer", "ping", nil)
	s.stash = reply[2:]
}

func use(b []byte) {}
