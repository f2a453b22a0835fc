package overlay

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/clock"
	"clash/internal/sim/link"
	"clash/internal/wirecodec"
)

// MemNetwork is an in-memory transport fabric: endpoints created from the
// same network reach each other by address without sockets. Every Call still
// round-trips the request and the reply through the binary frame codec
// (appendFrame/decodeFrame, sequence ID included), so the serialisation path
// is byte-identical to TCP. Endpoints can be marked down to exercise failure
// handling, and per-type call counts let tests assert on message complexity.
// SetLink optionally applies a network link model (latency/jitter/loss) to
// every crossing message, so -inproc smoke runs stop being a zero-RTT
// fantasy.
type MemNetwork struct {
	mu    sync.RWMutex
	eps   map[string]*MemEndpoint
	down  map[string]bool
	calls map[string]int
	// modeled mirrors "a non-zero link model is installed" so the hot call
	// path skips the fabric mutex entirely in the default zero-RTT mode.
	modeled atomic.Bool
	link    link.Model
	rng     *rand.Rand
	clk     clock.Clock
}

// NewMemNetwork creates an empty fabric on the wall clock; SetClock swaps in
// a virtual time source.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{
		eps:   make(map[string]*MemEndpoint),
		down:  make(map[string]bool),
		calls: make(map[string]int),
		clk:   clock.Real(),
	}
}

// SetClock replaces the fabric's time source for link-model latencies and RTT
// measurement. Call before traffic starts.
func (n *MemNetwork) SetClock(clk clock.Clock) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clk = clk
}

// sleep waits out d on the fabric's clock.
func (n *MemNetwork) sleep(d time.Duration) {
	t := n.clk.NewTimer(d)
	defer t.Stop()
	<-t.C()
}

// Endpoint creates (or returns the existing) endpoint with the given address.
func (n *MemNetwork) Endpoint(addr string) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.eps[addr]; ok {
		return ep
	}
	ep := &MemEndpoint{net: n, addr: addr}
	n.eps[addr] = ep
	return ep
}

// SetDown marks an address unreachable (true) or reachable again (false).
func (n *MemNetwork) SetDown(addr string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[addr] = down
}

// SetLink installs a link model applied to every message crossing the fabric:
// each direction of a Call sleeps a sampled one-way latency (on the fabric's
// clock — the wall clock by default, SetClock injects a virtual source; the
// event-driven analogue lives in internal/sim), and lost messages surface as
// ErrUnreachable after the
// model's drop timeout. The seed makes the latency/loss draws reproducible.
// A zero model restores the instantaneous fabric.
func (n *MemNetwork) SetLink(m link.Model, seed int64) error {
	if err := m.Validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.link = m
	n.rng = rand.New(rand.NewSource(seed))
	n.modeled.Store(!m.Zero())
	return nil
}

// sampleLink draws the fate of one message crossing the fabric.
func (n *MemNetwork) sampleLink() (latency time.Duration, dropped bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.link.Zero() || n.rng == nil {
		return 0, false
	}
	return n.link.Sample(n.rng)
}

// crossLink applies one direction of the link model on the fabric's clock,
// reporting
// whether the message survived. The atomic fast path keeps the default
// zero-RTT fabric off the mutex entirely. A non-nil budget is the caller's
// remaining deadline: the sampled latency is charged against it, and a
// latency that exceeds what remains sleeps out the budget and reports a
// deadline expiry instead of a delivery.
func (n *MemNetwork) crossLink(budget *time.Duration) (ok, timedOut bool) {
	if !n.modeled.Load() {
		return true, false
	}
	latency, dropped := n.sampleLink()
	if budget != nil {
		if latency > *budget {
			n.sleep(*budget)
			*budget = 0
			return false, true
		}
		*budget -= latency
	}
	if latency > 0 {
		n.sleep(latency)
	}
	return !dropped, false
}

// Calls returns how many requests of the given type crossed the fabric.
func (n *MemNetwork) Calls(msgType string) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.calls[msgType]
}

// route resolves the target endpoint, recording the call.
func (n *MemNetwork) route(addr, msgType string) (*MemEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.calls[msgType]++
	if n.down[addr] {
		return nil, fmt.Errorf("%w: %s is down", ErrUnreachable, addr)
	}
	ep, ok := n.eps[addr]
	if !ok || ep.isClosed() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	return ep, nil
}

// MemEndpoint is one addressable endpoint of a MemNetwork.
type MemEndpoint struct {
	net  *MemNetwork
	addr string

	seq   atomic.Uint64
	stats transportStats

	mu      sync.RWMutex
	handler Handler
	closed  bool
}

var _ Transport = (*MemEndpoint)(nil)

// Addr implements Transport.
func (e *MemEndpoint) Addr() string { return e.addr }

// SetHandler implements Transport.
func (e *MemEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Stats implements Transport.
func (e *MemEndpoint) Stats() TransportStats { return e.stats.snapshot() }

// RecordRetry implements RetryRecorder.
func (e *MemEndpoint) RecordRetry() { e.stats.retries.Add(1) }

func (e *MemEndpoint) isClosed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closed
}

// Close implements Transport.
func (e *MemEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}

// Call implements Transport. The request and the reply both pass through the
// frame codec (with a real sequence ID, exactly the bytes TCP would carry);
// the handler runs synchronously on the caller's goroutine without any fabric
// lock held, so re-entrant call chains (A→B→A) cannot deadlock.
func (e *MemEndpoint) Call(addr, msgType string, payload []byte) ([]byte, error) {
	return e.CallOpts(addr, msgType, payload, CallOpts{})
}

// CallOpts implements Transport. The deadline is charged against the link
// model's sampled latencies (handler execution is not metered — the fabric
// has no way to preempt an inline handler); with no link model installed
// calls are instantaneous and never expire.
func (e *MemEndpoint) CallOpts(addr, msgType string, payload []byte, opts CallOpts) ([]byte, error) {
	if e.isClosed() {
		return nil, fmt.Errorf("%w: %s", ErrClosed, e.addr)
	}
	typ, err := typeByte(msgType)
	if err != nil {
		return nil, err
	}
	var budget *time.Duration
	if opts.Timeout > 0 {
		b := opts.Timeout
		budget = &b
	}
	timedOutErr := func() error {
		e.stats.timeouts.Add(1)
		return fmt.Errorf("%w: %s after %s", ErrDeadline, addr, opts.Timeout)
	}
	seq := e.seq.Add(1)
	e.stats.inFlight.Add(1)
	defer e.stats.inFlight.Add(-1)

	// The request direction mirrors TCP's pooled server path: the request
	// payload is decoded in place from a pooled frame buffer owned by this
	// call, which goes back to the pool once dispatch (and the reply round
	// trip) is done.
	req, reqBuf, err := e.frameRoundTrip(seq, typ, payload, &e.stats)
	if err != nil {
		return nil, err
	}
	defer wirecodec.PutBuf(reqBuf)
	target, err := e.net.route(addr, typeName(req.typ))
	if err != nil {
		return nil, err
	}
	start := e.net.clk.Now()
	if ok, timedOut := e.net.crossLink(budget); !ok {
		if timedOut {
			return nil, timedOutErr()
		}
		return nil, fmt.Errorf("%w: %s: request lost", ErrUnreachable, addr)
	}
	target.mu.RLock()
	h := target.handler
	target.mu.RUnlock()
	target.stats.countIn(frameHeaderSize + len(req.payload))
	reply, herr := dispatch(h, typeName(req.typ), req.payload)
	if herr != nil {
		// Errors cross the wire as typeReplyErr text, like on TCP.
		rf, err := target.replyRoundTrip(seq, typeReplyErr, []byte(herr.Error()), e)
		if err != nil {
			return nil, err
		}
		if ok, timedOut := e.net.crossLink(budget); !ok {
			if timedOut {
				return nil, timedOutErr()
			}
			return nil, fmt.Errorf("%w: %s: reply lost", ErrUnreachable, addr)
		}
		return nil, &RemoteError{Msg: string(rf.payload)}
	}
	rf, err := target.replyRoundTrip(seq, typeReplyOK, reply, e)
	// The handler transferred reply ownership; the reply frame encoding copied
	// it, so it can be recycled regardless of the round trip's outcome.
	wirecodec.PutBuf(reply)
	if err != nil {
		return nil, err
	}
	if rf.seq != seq {
		return nil, fmt.Errorf("%w: reply seq %d for call %d", ErrBadFrame, rf.seq, seq)
	}
	if ok, timedOut := e.net.crossLink(budget); !ok {
		if timedOut {
			return nil, timedOutErr()
		}
		return nil, fmt.Errorf("%w: %s: reply lost", ErrUnreachable, addr)
	}
	if opts.RTT != nil {
		*opts.RTT = e.net.clk.Now().Sub(start)
	}
	return rf.payload, nil
}

// frameRoundTrip encodes one frame into a pooled buffer, counts the caller's
// outbound side, and decodes the frame back in place (decodeFrame), so the
// codec runs without a reader, a header copy or a payload copy. On success
// the returned buffer owns the encoding and f.payload aliases it: the caller
// recycles the buffer with wirecodec.PutBuf once the payload is dead. On
// error the buffer has already been recycled.
func (e *MemEndpoint) frameRoundTrip(seq uint64, typ byte, payload []byte, out *transportStats) (frame, []byte, error) {
	buf, err := appendFrame(wirecodec.GetBuf(), seq, typ, payload)
	if err == nil {
		out.countOut(len(buf))
		var f frame
		if f, err = decodeFrame(buf); err == nil {
			return f, buf, nil
		}
	}
	wirecodec.PutBuf(buf)
	return frame{}, nil, err
}

// replyRoundTrip encodes the reply frame on the target side and decodes it on
// the caller side, mirroring TCP's reply direction for the counters. The
// reply payload escapes to the caller, so it is copied out of the pooled
// frame once.
func (t *MemEndpoint) replyRoundTrip(seq uint64, typ byte, payload []byte, caller *MemEndpoint) (frame, error) {
	f, buf, err := t.frameRoundTrip(seq, typ, payload, &t.stats)
	if err != nil {
		return frame{}, err
	}
	f.payload = append([]byte(nil), f.payload...)
	wirecodec.PutBuf(buf)
	caller.stats.countIn(frameHeaderSize + len(f.payload))
	return f, nil
}
