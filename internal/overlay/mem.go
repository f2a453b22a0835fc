package overlay

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/clock"
	"clash/internal/metrics"
	"clash/internal/sim/link"
	"clash/internal/wirecodec"
)

// MemNetwork is the in-memory transport fabric: endpoints created from the
// same network reach each other by address without sockets, and the handler
// runs inline on the caller's goroutine. Every Call still round-trips the
// request and the reply through the binary frame codec (appendFrame/
// decodeFrame, sequence ID included), so the serialisation path and the
// buffer ownership rules are the TCP transport's.
//
// The fabric scripts faults: endpoints can be marked down (a crash, as caller
// or target), split into partitions, slowed, or cut off in one direction
// only, and SetLink applies a link model (latency, jitter, loss, duplicate
// and late delivery) to every crossing message. Per-type call counts and
// one-way latency histograms let tests and scenarios assert on message
// complexity and delivery latency.
//
// The clock decides how link time passes. On a live clock (the wall clock by
// default, or any clock.Clock from SetClock) each direction of a Call sleeps
// its sampled latency and a late duplicate arrives from a goroutine. On the
// discrete-event simulator's clock (one that can schedule callbacks) a Call
// executes at its issue instant: its link time is charged to TraceCall and a
// late duplicate goes on the event queue, so nothing sleeps.
type MemNetwork struct {
	mu  sync.RWMutex
	eps map[string]*MemEndpoint
	// calls counts requests by wire type byte.
	calls [256]atomic.Int64
	// faulty mirrors "a link model, a fault or the simulator's clock is
	// installed", so the default zero-RTT fabric's hot path skips every
	// fault check.
	faulty atomic.Bool

	// clk and sched are set by SetClock before traffic starts; calls read
	// clk without the lock.
	clk   clock.Clock
	sched scheduler // clk as an event scheduler; nil on a live clock

	// The fields below are guarded by mu.
	link link.Model
	rng  *rand.Rand

	down      map[string]bool
	part      map[string]int     // partition id; absent = 0
	slow      map[string]float64 // slowdown factor; absent = 1
	asym      map[string]int     // asymmetric-partition group; absent = 0
	asymBlock map[[2]int]bool    // [from, to] group pair → blackholed

	latency   map[byte]*metrics.Histogram // one-way µs by request type byte
	traceCost *time.Duration              // armed by TraceCall
}

// scheduler is the part of the discrete-event engine's clock the fabric
// needs: a clock that can run fn d from now is virtual, and link time on it
// is accounted rather than slept.
type scheduler interface {
	After(d time.Duration, fn func())
}

// NewMemNetwork creates an empty fabric on the wall clock; SetClock swaps in
// a virtual time source.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{
		eps:       make(map[string]*MemEndpoint),
		clk:       clock.Real(),
		down:      make(map[string]bool),
		part:      make(map[string]int),
		slow:      make(map[string]float64),
		asym:      make(map[string]int),
		asymBlock: make(map[[2]int]bool),
		latency:   make(map[byte]*metrics.Histogram),
	}
}

// SetClock replaces the fabric's time source for link latencies and RTT
// measurement. Call before traffic starts.
func (n *MemNetwork) SetClock(clk clock.Clock) {
	n.fault(func() { n.clk = clk; n.sched, _ = clk.(scheduler) })
}

// fault applies one change to the fault state under the lock and recomputes
// the faulty flag.
func (n *MemNetwork) fault(change func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	change()
	n.faulty.Store(n.sched != nil || !n.link.Zero() || len(n.down) > 0 ||
		len(n.part) > 0 || len(n.slow) > 0 || len(n.asymBlock) > 0)
}

// store sets m[k] to v, deleting the entry when v is the default so an empty
// map means no fault of its kind.
func store[K, V comparable](m map[K]V, k K, v, def V) {
	if v == def {
		delete(m, k)
	} else {
		m[k] = v
	}
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

// SetLink installs a link model applied to every message crossing the
// fabric; a zero model restores the instantaneous fabric. Each message's
// fate is drawn from rng in a fixed order per Call (request loss and jitter,
// then duplicate, then late duplicate, then the reply), so a seeded rng
// makes the draws reproducible. The fabric locks around each draw; the
// simulator passes its engine's PRNG, shared with its other single-threaded
// randomness.
func (n *MemNetwork) SetLink(m link.Model, rng *rand.Rand) error {
	if err := m.Validate(); err != nil {
		return err
	}
	n.fault(func() { n.link, n.rng = m, rng })
	return nil
}

// SetDown marks an address crashed (true) or back up (false). Calls from and
// to a down endpoint fail with ErrUnreachable.
func (n *MemNetwork) SetDown(addr string, down bool) {
	n.fault(func() { store(n.down, addr, down, false) })
}

// SetPartition assigns an address to a network partition; only endpoints in
// the same partition can exchange messages. All endpoints start in partition
// 0.
func (n *MemNetwork) SetPartition(addr string, partition int) {
	n.fault(func() { store(n.part, addr, partition, 0) })
}

// Heal returns every endpoint to partition 0.
func (n *MemNetwork) Heal() { n.fault(func() { clear(n.part) }) }

// SetSlow assigns a node a link slowdown factor: every message to or from it
// takes factor times the sampled latency (a gray-failing node — alive, but
// answering far too slowly). Factor 1 (or less) restores normal speed.
func (n *MemNetwork) SetSlow(addr string, factor float64) {
	n.fault(func() { store(n.slow, addr, max(factor, 1), 1) })
}

// SetAsymGroup assigns an address to an asymmetric-partition group (default
// 0). Unlike SetPartition, group membership alone blocks nothing — directions
// are blocked pairwise with SetAsymBlocked.
func (n *MemNetwork) SetAsymGroup(addr string, group int) {
	n.fault(func() { store(n.asym, addr, group, 0) })
}

// SetAsymBlocked blackholes (or restores) one direction between two
// asymmetric-partition groups: messages from a node in group from to a node
// in group to vanish in transit, while the reverse direction keeps working —
// the classic gray failure where A can reach B but B cannot reach A. A
// request crossing a blocked direction never arrives and a reply crossing one
// is lost after the handler ran; either way the caller sees its deadline
// expire (ErrDeadline).
func (n *MemNetwork) SetAsymBlocked(from, to int, blocked bool) {
	n.fault(func() { store(n.asymBlock, [2]int{from, to}, blocked, false) })
}

// HealAsym clears all asymmetric-partition state.
func (n *MemNetwork) HealAsym() { n.fault(func() { clear(n.asym); clear(n.asymBlock) }) }

// TraceCall runs fn and returns the virtual time its calls would have cost a
// real caller on the simulator's clock: the round-trip latency of every
// successful call, the expired deadline of every timeout, the drop timeout
// of every loss. The simulator executes events instantaneously, so blocking
// time must be accounted, not measured; on a live clock the time is slept
// instead and TraceCall reports zero. Nested traces each see their own
// calls; an outer trace includes the inner's cost.
func (n *MemNetwork) TraceCall(fn func()) time.Duration {
	var cost time.Duration
	n.mu.Lock()
	prev := n.traceCost
	n.traceCost = &cost
	n.mu.Unlock()
	fn()
	n.mu.Lock()
	n.traceCost = prev
	if prev != nil {
		*prev += cost
	}
	n.mu.Unlock()
	return cost
}

// Calls returns how many requests of the given type were attempted.
func (n *MemNetwork) Calls(msgType string) int {
	typ, err := typeByte(msgType)
	if err != nil {
		return 0
	}
	return int(n.calls[typ].Load())
}

// Latency returns a copy of the one-way delivery latency histogram (in
// microseconds of the fabric's clock) recorded for a request type, or nil if
// none was delivered through the link model.
func (n *MemNetwork) Latency(msgType string) *metrics.Histogram {
	typ, err := typeByte(msgType)
	if err != nil {
		return nil
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.latency[typ] == nil {
		return nil
	}
	h := metrics.NewHistogram()
	h.Merge(n.latency[typ])
	return h
}

// route resolves the target endpoint: unknown or closed targets, a down
// caller or target and a partition between them are unreachable.
func (n *MemNetwork) route(from, to string) (*MemEndpoint, error) {
	n.mu.RLock()
	ep, ok := n.eps[to]
	cut := n.faulty.Load() && (n.down[from] || n.down[to] || n.part[from] != n.part[to])
	n.mu.RUnlock()
	if !ok || cut || ep.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	return ep, nil
}

// linkCall carries one Call across the link model and the gray faults.
type linkCall struct {
	n       *MemNetwork
	caller  *MemEndpoint
	target  *MemEndpoint
	typ     byte
	link    link.Model
	rng     *rand.Rand    // drawn under n.mu: live callers share it
	factor  float64       // the slower side's slowdown
	timeout time.Duration // the call's deadline
	elapsed time.Duration // link time of the delivered legs
	virtual bool          // the simulator's clock: account, never sleep
}

func (n *MemNetwork) newLinkCall(caller, target *MemEndpoint, typ byte, timeout time.Duration) *linkCall {
	if timeout <= 0 {
		timeout = defaultCallTimeout
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return &linkCall{
		n: n, caller: caller, target: target, typ: typ, timeout: timeout,
		link: n.link, rng: n.rng,
		factor:  max(1, n.slow[caller.addr], n.slow[target.addr]),
		virtual: n.sched != nil,
	}
}

// scale multiplies a sampled latency by the call's slowdown factor.
func (c *linkCall) scale(d time.Duration) time.Duration {
	if c.factor <= 1 {
		return d
	}
	return time.Duration(float64(d) * c.factor)
}

// spend passes link time: a live fabric sleeps d now; on the simulator's
// clock the call runs at its issue instant, so only its whole blocking cost
// (total) is charged to an armed TraceCall.
func (c *linkCall) spend(d, total time.Duration) {
	switch {
	case !c.virtual && d > 0:
		c.n.sleep(d)
	case c.virtual && total > 0:
		c.n.mu.Lock()
		if c.n.traceCost != nil {
			*c.n.traceCost += total
		}
		c.n.mu.Unlock()
	}
}

// leg carries one direction from → to, recording a delivered request's
// one-way latency. A blackholed direction, or a latency or drop timeout
// overrunning the deadline, expires the call (ErrDeadline); otherwise a lost
// message fails it after the drop timeout (ErrUnreachable). A blackholed
// message draws nothing from the PRNG: it has no fate to sample.
func (c *linkCall) leg(from, to *MemEndpoint, request bool) error {
	n := c.n
	n.mu.Lock()
	blocked := len(n.asymBlock) > 0 && n.asymBlock[[2]int{n.asym[from.addr], n.asym[to.addr]}]
	var lat time.Duration
	var lost bool
	if !blocked {
		lat, lost = c.link.Sample(c.rng)
		lat = c.scale(lat)
	}
	late := blocked || c.elapsed+lat > c.timeout
	if request && !lost && !late {
		h := n.latency[c.typ]
		if h == nil {
			h = metrics.NewHistogram()
			n.latency[c.typ] = h
		}
		h.Record(lat.Microseconds())
	}
	n.mu.Unlock()
	switch {
	case late:
		// A late request never reaches the handler (the mux would discard
		// its stale sequence ID); a late reply arrives after the handler ran.
		c.spend(c.timeout-c.elapsed, c.timeout)
		c.caller.stats.timeouts.Add(1)
		return fmt.Errorf("%w: %s after %s", ErrDeadline, c.target.addr, c.timeout)
	case lost:
		c.spend(lat, lat)
		what := "reply"
		if request {
			what = "request"
		}
		return fmt.Errorf("%w: %s: %s lost", ErrUnreachable, c.target.addr, what)
	}
	c.spend(lat, 0)
	c.elapsed += lat
	return nil
}

// chance draws one Bernoulli(p) outcome, drawing nothing when p is zero.
func (c *linkCall) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	return c.rng.Float64() < p
}

// redeliver draws the delivered request's duplicate and late duplicate.
// A duplicate runs the handler again at once on its own copy of the payload;
// a late duplicate arrives the drop timeout after the original, by which
// time the target may be closed or down and drops it. Neither reply goes
// anywhere: it answers a sequence ID nobody waits for.
func (c *linkCall) redeliver(h Handler, msgType string, payload []byte) {
	if c.chance(c.link.Dup) && h != nil {
		reply, _ := h(msgType, append([]byte(nil), payload...))
		wirecodec.PutBuf(reply)
	}
	if !c.chance(c.link.Reorder) {
		return
	}
	n, t := c.n, c.target
	body := append([]byte(nil), payload...)
	deliver := func() {
		n.mu.RLock()
		down := n.down[t.addr]
		n.mu.RUnlock()
		if h := t.getHandler(); h != nil && !down && !t.closed.Load() {
			reply, _ := h(msgType, body)
			wirecodec.PutBuf(reply)
		}
	}
	d := c.elapsed + c.scale(c.link.DropTimeout)
	if c.virtual {
		n.sched.After(d, deliver)
		return
	}
	go func() { // ends after its one delivery attempt
		n.sleep(d)
		deliver()
	}()
}

// MemEndpoint is one addressable endpoint of a MemNetwork.
type MemEndpoint struct {
	net  *MemNetwork
	addr string

	seq   atomic.Uint64
	stats transportStats

	closed atomic.Bool

	mu      sync.RWMutex
	handler Handler
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

func (e *MemEndpoint) getHandler() Handler {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.handler
}

// Stats implements Transport.
func (e *MemEndpoint) Stats() TransportStats { return e.stats.snapshot() }

// RecordRetry implements RetryRecorder.
func (e *MemEndpoint) RecordRetry() { e.stats.retries.Add(1) }

// Close implements Transport.
func (e *MemEndpoint) Close() error {
	e.closed.Store(true)
	return nil
}

// Call implements Transport. The request and the reply both pass through the
// frame codec (with a real sequence ID, exactly the bytes TCP would carry);
// the handler runs synchronously on the caller's goroutine without any fabric
// lock held, so re-entrant call chains (A→B→A) cannot deadlock.
func (e *MemEndpoint) Call(addr, msgType string, payload []byte) ([]byte, error) {
	return e.CallOpts(addr, msgType, payload, CallOpts{})
}

// CallOpts implements Transport. With no link model or fault installed the
// call is instantaneous and never expires. Otherwise both directions draw
// their fate from the link model: a lost request or reply fails the call
// with ErrUnreachable, and link time past the deadline (default
// defaultCallTimeout, as on TCP) fails it with ErrDeadline — before the
// handler runs when the request leg alone overshoots, after it when the
// reply leg does, exactly the ambiguity a real timeout has. Handler
// execution is not metered: the fabric cannot preempt an inline handler.
// Handler errors come back as *RemoteError, as on TCP.
func (e *MemEndpoint) CallOpts(addr, msgType string, payload []byte, opts CallOpts) ([]byte, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrClosed, e.addr)
	}
	typ, err := typeByte(msgType)
	if err != nil {
		return nil, err
	}
	n := e.net
	n.calls[typ].Add(1)
	target, err := n.route(e.addr, addr)
	if err != nil {
		return nil, err
	}
	var lc *linkCall
	if n.faulty.Load() {
		lc = n.newLinkCall(e, target, typ, opts.Timeout)
	}
	var start time.Time
	if opts.RTT != nil {
		start = n.clk.Now()
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
	if lc != nil {
		if err := lc.leg(e, target, true); err != nil {
			return nil, err
		}
	}
	target.stats.countIn(frameHeaderSize + len(req.payload))
	h := target.getHandler()
	reply, herr := dispatch(h, typeName(req.typ), req.payload)
	if lc != nil {
		lc.redeliver(h, typeName(req.typ), req.payload)
	}
	// Errors cross the wire as typeReplyErr text, like on TCP.
	rtyp, body := typeReplyOK, reply
	if herr != nil {
		rtyp, body = typeReplyErr, []byte(herr.Error())
	}
	rf, repBuf, err := target.frameRoundTrip(seq, rtyp, body, &target.stats)
	// The handler transferred reply ownership; the reply frame encoding copied
	// it, so it can be recycled regardless of the round trip's outcome.
	wirecodec.PutBuf(reply)
	if err != nil {
		return nil, err
	}
	if rf.seq != seq {
		wirecodec.PutBuf(repBuf)
		return nil, fmt.Errorf("%w: reply seq %d for call %d", ErrBadFrame, rf.seq, seq)
	}
	// The reply payload escapes to the caller, so it is copied out of the
	// frame once, into a pooled buffer the caller may recycle (see
	// Transport.Call). An error's text becomes a string instead.
	size := frameHeaderSize + len(rf.payload)
	var out []byte
	var remote *RemoteError
	switch {
	case rtyp == typeReplyErr:
		remote = &RemoteError{Msg: string(rf.payload)}
	case len(rf.payload) > 0:
		out = append(wirecodec.GetBuf(), rf.payload...)
	}
	wirecodec.PutBuf(repBuf)
	if lc != nil {
		if err := lc.leg(target, e, false); err != nil {
			wirecodec.PutBuf(out)
			return nil, err
		}
		lc.spend(0, lc.elapsed)
	}
	e.stats.countIn(size)
	if opts.RTT != nil {
		if lc != nil && lc.virtual {
			// Virtual time does not pass during a call: report the modeled
			// round trip so the caller's latency EWMA learns it.
			*opts.RTT = lc.elapsed
		} else {
			*opts.RTT = n.clk.Now().Sub(start)
		}
	}
	if remote != nil {
		return nil, remote
	}
	return out, nil
}

// frameRoundTrip encodes one frame into a pooled buffer, counts the sender's
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
