package overlay

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/wirecodec"
)

// Default timeouts for the TCP transport (the zero TCPConfig). Dial and
// per-call deadlines keep a dead peer from wedging the maintenance loop; the
// idle deadline reaps connections whose peer went away. Socket deadlines are
// armed once and moved only when they run short or fire (idleReader,
// frameWriter.flush), not once per frame: each change is a runtime timer
// update, and on a busy connection that is a cost per message.
const (
	tcpDialTimeout = 3 * time.Second
	tcpIdleTimeout = 5 * time.Minute
	// tcpShedWait bounds how long an inbound request may wait for a dispatch
	// slot before the server sheds it with a framed shed reply. Without the
	// bound, a wedged handler holding every slot would queue pipelined
	// requests forever.
	tcpShedWait = 2 * time.Second
	// tcpMuxIdle is how long an outbound multiplexed connection may sit with
	// no call in flight before the client closes it itself. It is well below
	// the server-side idle timeout so the client always reaps first: a request
	// written into a socket the peer already closed "succeeds" into the dead
	// buffer and cannot safely be retried.
	tcpMuxIdle = time.Minute
	// serverMaxConcurrent bounds how many pipelined requests one inbound
	// connection may have dispatched at once; excess requests wait for a
	// slot (backpressure) instead of spawning unbounded goroutines.
	serverMaxConcurrent = 256
)

// TCPConfig tunes a TCPTransport's timeouts and dispatch bounds. Zero fields
// take the package defaults above.
type TCPConfig struct {
	// DialTimeout bounds each outbound connection attempt.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline used when CallOpts carries none.
	// It also bounds socket writes: a write blocked on a peer that stopped
	// reading fails between CallTimeout and 2×CallTimeout after it started
	// (the write deadline is re-armed to 2×CallTimeout ahead only once less
	// than CallTimeout of it remains).
	CallTimeout time.Duration
	// IdleTimeout is the server-side read deadline: an inbound connection
	// that received no bytes for this long is closed. The deadline is armed
	// once and moved to last-read + IdleTimeout only when it fires, so a
	// connection is reaped IdleTimeout after its last byte.
	IdleTimeout time.Duration
	// ShedWait bounds how long an inbound request waits for a dispatch slot
	// before being shed with a framed shed reply.
	ShedWait time.Duration
	// MaxConcurrent bounds concurrently dispatched requests per inbound
	// connection.
	MaxConcurrent int
}

// withDefaults fills zero fields with the package defaults.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = tcpDialTimeout
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = defaultCallTimeout
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = tcpIdleTimeout
	}
	if c.ShedWait <= 0 {
		c.ShedWait = tcpShedWait
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = serverMaxConcurrent
	}
	return c
}

// errMuxClosed marks a Call that failed because the shared connection closed
// before its frame writer took the request frame. The request never touched
// the socket, so retrying on a fresh connection is safe.
var errMuxClosed = errors.New("overlay: connection closed before write")

// TCPTransport is the production transport: one listening socket answering
// framed requests, plus one multiplexed outbound connection per peer.
// Concurrent Calls to the same address pipeline their frames onto that single
// connection — callers write through a shared frameWriter that combines
// concurrent frames into one writev, and a demux reader loop matches replies
// to waiting calls by sequence ID — so N in-flight calls cost one socket, not
// N lockstep exchanges. Inbound requests are dispatched concurrently to
// reused workers, so replies leave in completion order, not arrival order.
type TCPTransport struct {
	ln    net.Listener
	addr  string
	cfg   TCPConfig
	stats transportStats

	mu      sync.Mutex
	handler Handler
	closed  bool
	serving map[net.Conn]struct{}
	muxes   map[string]*muxConn
	dialing map[string]*sync.Mutex // per-addr dial serialisation
	dialed  map[string]bool        // addrs dialed at least once (reconnect counting)
	wg      sync.WaitGroup
}

var _ Transport = (*TCPTransport)(nil)

// ListenTCP binds a TCP transport with the default timeouts and starts its
// accept loop. Pass an address with port 0 to let the kernel choose (the
// chosen address is what Addr returns and therefore the node's identity — use
// an address peers can reach).
func ListenTCP(addr string) (*TCPTransport, error) {
	return ListenTCPConfig(addr, TCPConfig{})
}

// ListenTCPConfig is ListenTCP with explicit timeouts and dispatch bounds.
func ListenTCPConfig(addr string, cfg TCPConfig) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("overlay: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		ln:      ln,
		addr:    ln.Addr().String(),
		cfg:     cfg.withDefaults(),
		serving: make(map[net.Conn]struct{}),
		muxes:   make(map[string]*muxConn),
		dialing: make(map[string]*sync.Mutex),
		dialed:  make(map[string]bool),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements Transport.
func (t *TCPTransport) Addr() string { return t.addr }

// SetHandler implements Transport.
func (t *TCPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Stats implements Transport.
func (t *TCPTransport) Stats() TransportStats { return t.stats.snapshot() }

// RecordRetry implements RetryRecorder.
func (t *TCPTransport) RecordRetry() { t.stats.retries.Add(1) }

// Close implements Transport: it stops the accept loop, closes every inbound
// connection and outbound mux, then waits for all connection goroutines.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.ln.Close()
	for c := range t.serving {
		c.Close()
	}
	muxes := make([]*muxConn, 0, len(t.muxes))
	for _, mc := range t.muxes {
		muxes = append(muxes, mc)
	}
	t.mu.Unlock()
	for _, mc := range muxes {
		mc.fail(fmt.Errorf("%w: %s", ErrClosed, t.addr))
	}
	t.wg.Wait()
	return err
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.serving[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(conn)
	}
}

// numServing returns the number of live inbound connections (tests use it to
// prove that pipelined calls share one socket).
func (t *TCPTransport) numServing() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.serving)
}

// frameReadBuffer sizes each connection's small read buffer: a header and a
// short payload arrive in one read, longer payloads bypass it.
const frameReadBuffer = 256

// frameWriter serialises frames onto one connection without a goroutine of
// its own: the caller that finds the socket idle writes its frame, and every
// frame queued meanwhile by callers that then returned, in one writev. A
// taken frame reaches the socket, or onFail tears the connection down.
type frameWriter struct {
	conn    net.Conn
	stats   *transportStats
	timeout time.Duration
	onFail  func()

	mu      sync.Mutex
	queue   [][]byte // frames waiting for the flushing caller
	writing bool     // a caller is flushing
	failed  bool     // a write failed: framing is lost, nothing more is sent

	// Owned by the flushing caller. WriteTo consumes vec, so each flush
	// rebuilds it from vecBuf, whose backing array survives. deadline is the
	// write deadline currently armed on conn.
	batch, vecBuf [][]byte
	vec           net.Buffers
	deadline      time.Time
}

// write hands buf (a pooled frame) to the writer. It reports false when the
// connection had already failed: buf was recycled without being sent.
func (w *frameWriter) write(buf []byte) bool {
	w.mu.Lock()
	if w.failed {
		w.mu.Unlock()
		wirecodec.PutBuf(buf)
		return false
	}
	w.queue = append(w.queue, buf)
	if w.writing {
		w.mu.Unlock()
		return true
	}
	w.writing = true
	ok := true
	for ok && len(w.queue) > 0 {
		w.batch, w.queue = w.queue, w.batch[:0]
		w.mu.Unlock()
		ok = w.flush()
		w.mu.Lock()
	}
	w.writing, w.failed = false, !ok
	if !ok {
		w.queue = nil // frames queued behind the failed write are never sent
		defer w.onFail()
	}
	w.mu.Unlock()
	return true
}

// flush writes the batch in one writev and recycles its frames.
func (w *frameWriter) flush() bool {
	w.vecBuf = append(w.vecBuf[:0], w.batch...)
	w.vec = w.vecBuf
	// Count before the syscall: the peer may answer a request, and its caller
	// read Stats, before WriteTo returns here.
	for _, b := range w.batch {
		w.stats.countOut(len(b))
	}
	// Re-arm only when less than one timeout remains, two timeouts ahead: a
	// blocked write still fails within [timeout, 2×timeout], and a busy
	// connection moves its deadline once per timeout instead of per flush.
	//clashvet:ignore clockcheck kernel socket deadlines need the wall clock; TCP never runs under the simulator
	if now := time.Now(); w.deadline.Sub(now) < w.timeout {
		w.deadline = now.Add(2 * w.timeout)
		_ = w.conn.SetWriteDeadline(w.deadline)
	}
	w.stats.socketWrites.Add(1)
	_, err := w.vec.WriteTo(w.conn)
	for i, b := range w.batch {
		wirecodec.PutBuf(b)
		w.batch[i] = nil
	}
	return err == nil
}

// idleReader is a connection's read side under an idle deadline that is armed
// once and moved only when it fires. Every read that returns bytes stamps
// last; a deadline that fires less than idle after the last activity is moved
// to last+idle and the read resumes, so a frame half-read when it fires is
// never cut. Read returns the timeout only once idle has passed with nothing
// read and no other activity stamped into last.
type idleReader struct {
	conn  net.Conn
	idle  time.Duration
	last  *atomic.Int64 // UnixNano of the last activity
	stats *transportStats
}

func (r idleReader) Read(p []byte) (int, error) {
	for {
		n, err := r.conn.Read(p)
		if n > 0 {
			r.stats.socketReads.Add(1)
			//clashvet:ignore clockcheck idle reaping of real sockets is wall-clock by nature; TCP never runs under the simulator
			r.last.Store(time.Now().UnixNano())
			return n, err
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			return n, err
		}
		deadline := time.Unix(0, r.last.Load()).Add(r.idle)
		//clashvet:ignore clockcheck kernel socket deadlines need the wall clock; TCP never runs under the simulator
		if !time.Now().Before(deadline) {
			return n, err
		}
		_ = r.conn.SetReadDeadline(deadline)
	}
}

// armIdle arms conn's first idle read deadline and returns the reader that
// keeps it: reads through it stamp last and count into stats.
func armIdle(conn net.Conn, idle time.Duration, last *atomic.Int64, stats *transportStats) idleReader {
	//clashvet:ignore clockcheck kernel socket deadlines need the wall clock; TCP never runs under the simulator
	now := time.Now()
	last.Store(now.UnixNano())
	_ = conn.SetReadDeadline(now.Add(idle))
	return idleReader{conn: conn, idle: idle, last: last, stats: stats}
}

// inbound is one served connection's reply writer and dispatch state.
type inbound struct {
	t       *TCPTransport
	w       *frameWriter
	sem     chan struct{}  // bounds dispatched requests (cfg.MaxConcurrent)
	hwg     sync.WaitGroup // dispatched requests whose reply is not yet written
	workers *parked[frame] // dispatch workers waiting for the next request
}

// writeReply frames and writes one reply. An oversized reply becomes a framed
// error, whose text always fits: a dropped frame would leave the caller
// waiting out its timeout and retrying forever. A notification (seq 0) gets
// no reply of any kind: nobody waits for one.
func (in *inbound) writeReply(seq uint64, typ byte, payload []byte) {
	if seq == 0 {
		return
	}
	buf, err := appendFrame(wirecodec.GetBuf(), seq, typ, payload)
	if err != nil {
		buf, _ = appendFrame(buf[:0], seq, typeReplyErr, []byte(err.Error()))
	}
	in.w.write(buf)
}

// worker serves request f and then parks for the next one (see parked).
// Each reply is written before its request's dispatch slot and shutdown
// count are released. Connection shutdown releases the parked workers.
func (in *inbound) worker(f frame) {
	defer in.t.wg.Done()
	for {
		in.t.mu.Lock()
		h := in.t.handler
		in.t.mu.Unlock()
		reply, herr := dispatch(h, typeName(f.typ), f.payload)
		if herr != nil {
			in.writeReply(f.seq, typeReplyErr, []byte(herr.Error()))
		} else {
			in.writeReply(f.seq, typeReplyOK, reply)
			wirecodec.PutBuf(reply) // handed over by the handler; the frame holds a copy
		}
		wirecodec.PutBuf(f.payload)
		f = frame{} // a parked worker pins no payload
		<-in.sem
		in.hwg.Done()
		var ok bool
		if f, ok = in.workers.park(); !ok {
			return
		}
	}
}

// serveConn answers framed requests on one inbound connection until the peer
// hangs up, framing corrupts, or the idle deadline passes. Requests are read
// through a small buffer and dispatched concurrently (bounded by
// cfg.MaxConcurrent) to reused workers; each reply carries its request's
// sequence ID, so a slow handler never head-of-line blocks the requests
// pipelined behind it. A request that cannot get a dispatch slot within
// cfg.ShedWait is shed with a framed shed reply — wedged handlers cost the
// peer a bounded wait, not an unbounded queue. A notification (seq 0) is
// dispatched the same way but never answered: shed, it is dropped silently
// (and counted in Shed).
func (t *TCPTransport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	in := &inbound{
		t:       t,
		w:       &frameWriter{conn: conn, stats: &t.stats, timeout: t.cfg.CallTimeout, onFail: func() { conn.Close() }},
		sem:     make(chan struct{}, t.cfg.MaxConcurrent),
		workers: newParked[frame](),
	}
	defer func() {
		// Workers write each reply before hwg.Done, so a peer that half-closed
		// after pipelining requests still gets every reply. A dead peer fails
		// the write within its deadline, so this wait cannot wedge.
		// Deregister before closing, so the connection is no longer counted
		// by the time the peer sees EOF.
		in.hwg.Wait()
		in.workers.stop()
		t.mu.Lock()
		delete(t.serving, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	var last atomic.Int64
	br := bufio.NewReaderSize(armIdle(conn, t.cfg.IdleTimeout, &last, &t.stats), frameReadBuffer)
	for {
		// Request payloads live in pooled buffers end-to-end: the handler
		// decodes in place and the worker recycles the buffer once the reply
		// frame (a copy) is built. readPooledFrame hands the buffer back
		// through f.payload on every path, so every path below recycles it.
		f, err := readPooledFrame(br)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The oversized payload was skipped and framing is intact:
				// answer with a framed error and keep the connection (and
				// every pipelined call on it) alive.
				t.stats.oversizedDrops.Add(1)
				in.writeReply(f.seq, typeReplyErr, []byte(err.Error()))
				wirecodec.PutBuf(f.payload)
				continue
			}
			// EOF, deadline, or framing corruption: close.
			wirecodec.PutBuf(f.payload)
			return
		}
		t.stats.countIn(frameHeaderSize + len(f.payload))
		select {
		case in.sem <- struct{}{}:
		default:
			// Every dispatch slot is taken: wait a bounded time, then shed.
			// The peer gets a distinct framed reply so it knows the handler
			// never ran and a backed-off resend is safe.
			//clashvet:ignore clockcheck real-socket overload shedding waits in wall time; TCP never runs under the simulator
			shedTimer := time.NewTimer(t.cfg.ShedWait)
			select {
			case in.sem <- struct{}{}:
				shedTimer.Stop()
			case <-shedTimer.C:
				t.stats.shed.Add(1)
				in.writeReply(f.seq, typeReplyShed, []byte("server overloaded: request shed"))
				wirecodec.PutBuf(f.payload)
				continue
			}
		}
		in.hwg.Add(1)
		if !in.workers.submit(f) {
			t.wg.Add(1)
			go in.worker(f)
		}
	}
}

// readPooledFrame reads the next frame with readFrameInto into a pooled
// buffer, drawn only once the frame's header is in: a connection's reader
// idles here between frames, and a buffer drawn ahead (grown to any size by
// an earlier user) would stay pinned all that time. As with readFrameInto,
// the caller recycles f.payload on every path; it is nil when no header
// arrived.
func readPooledFrame(r *bufio.Reader) (frame, error) {
	if _, err := r.Peek(frameHeaderSize); err != nil {
		return frame{}, err
	}
	return readFrameInto(r, wirecodec.GetBuf())
}

// callResult is what the demux reader delivers to a waiting Call.
type callResult struct {
	typ     byte
	payload []byte
	err     error
}

// callWaiter is one call's reply channel and timeout timer, recycled only
// once the reply arrived with the timer still pending. After a timeout the
// channel may yet receive a late deliver, and under go 1.22 timer semantics a
// fired timer's send may still be in flight when Stop returns, so such a
// waiter is dropped instead of drained.
type callWaiter struct {
	ch    chan callResult
	timer *time.Timer
}

var callWaiters = sync.Pool{New: func() any {
	//clashvet:ignore clockcheck real-RPC timeout on a kernel socket; TCP never runs under the simulator
	tm := time.NewTimer(time.Hour)
	tm.Stop()
	return &callWaiter{ch: make(chan callResult, 1), timer: tm}
}}

// muxConn is one multiplexed outbound connection: callers write their request
// frames through a shared frameWriter, and a reader loop demultiplexes
// replies into the in-flight map by sequence ID.
type muxConn struct {
	t        *TCPTransport
	addr     string
	conn     net.Conn
	w        *frameWriter
	failOnce sync.Once

	// lastUsed is the UnixNano of the last call, notification or bytes read,
	// read by the idle reaper to distinguish a genuinely idle connection
	// from a read deadline armed before a late call arrived.
	lastUsed atomic.Int64

	mu       sync.Mutex
	inflight map[uint64]chan callResult
	nextSeq  uint64
	closed   bool
}

// touch records activity for the idle reaper.
//
//clashvet:ignore clockcheck idle reaping of real sockets is wall-clock by nature; TCP never runs under the simulator
func (m *muxConn) touch() { m.lastUsed.Store(time.Now().UnixNano()) }

func newMuxConn(t *TCPTransport, addr string, conn net.Conn) *muxConn {
	m := &muxConn{
		t:        t,
		addr:     addr,
		conn:     conn,
		inflight: make(map[uint64]chan callResult),
	}
	m.w = &frameWriter{conn: conn, stats: &t.stats, timeout: t.cfg.CallTimeout, onFail: func() {
		m.fail(fmt.Errorf("%s: write failed", addr))
	}}
	m.touch()
	return m
}

func (m *muxConn) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// fail closes the connection and fails every in-flight call. It is safe to
// call multiple times and from any goroutine (reader, writer, Close).
func (m *muxConn) fail(err error) {
	m.failOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		waiting := m.inflight
		m.inflight = make(map[uint64]chan callResult)
		m.mu.Unlock()
		m.conn.Close()
		for _, ch := range waiting {
			ch <- callResult{err: err}
		}
	})
}

// readLoop demultiplexes reply frames to the in-flight calls and reaps the
// connection after tcpMuxIdle without traffic. Frames are read through a
// small buffer, so a header and its payload usually cost one read, and each
// payload into a pooled buffer that travels to the waiting call (the caller
// may recycle it; see Transport.Call). A reply no call takes, and every
// empty one, goes straight back to the pool. The idle deadline is armed
// once; the idleReader moves it from lastUsed when it fires, so it surfaces
// here only after tcpMuxIdle with no call, no notification and no reply
// byte.
func (m *muxConn) readLoop() {
	defer m.t.wg.Done()
	br := bufio.NewReaderSize(armIdle(m.conn, tcpMuxIdle, &m.lastUsed, &m.t.stats), frameReadBuffer)
	for {
		f, err := readPooledFrame(br)
		if err != nil {
			wirecodec.PutBuf(f.payload)
			if errors.Is(err, ErrFrameTooLarge) {
				// Only the oversized reply's call fails; the connection and
				// the other in-flight calls stay healthy.
				m.t.stats.oversizedDrops.Add(1)
				m.deliver(f.seq, callResult{err: err})
				continue
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				m.mu.Lock()
				idle := len(m.inflight) == 0
				m.mu.Unlock()
				if idle {
					// Clean idle self-reap: nothing is in flight (calls time
					// out and deregister long before tcpMuxIdle), so closing
					// now is invisible; failing with errMuxClosed lets a
					// Call racing this close retry on a fresh dial.
					m.fail(errMuxClosed)
					return
				}
			}
			m.fail(fmt.Errorf("read %s: %w", m.addr, err))
			return
		}
		if f.typ != typeReplyOK && f.typ != typeReplyErr && f.typ != typeReplyShed {
			wirecodec.PutBuf(f.payload)
			m.fail(fmt.Errorf("%w: reply type %#x", ErrBadFrame, f.typ))
			return
		}
		m.t.stats.countIn(frameHeaderSize + len(f.payload))
		if len(f.payload) == 0 {
			// An empty reply reaches the caller as nil, as on the in-memory
			// fabric.
			wirecodec.PutBuf(f.payload)
			f.payload = nil
		}
		m.deliver(f.seq, callResult{typ: f.typ, payload: f.payload})
	}
}

// deliver hands a result to the call waiting on seq. Replies for unknown
// sequence IDs (a call that timed out meanwhile, or seq 0 from a peer that
// answers notifications) are dropped, their payload recycled.
func (m *muxConn) deliver(seq uint64, res callResult) {
	m.mu.Lock()
	ch, ok := m.inflight[seq]
	delete(m.inflight, seq)
	m.mu.Unlock()
	if !ok {
		wirecodec.PutBuf(res.payload)
		return
	}
	ch <- res
}

// send is notify for a one-way type and call for every other.
func (m *muxConn) send(typ byte, payload []byte, timeout time.Duration) ([]byte, error) {
	if oneWay(typ) {
		return nil, m.notify(typ, payload)
	}
	return m.call(typ, payload, timeout)
}

// call performs one pipelined exchange on the shared connection, waiting at
// most timeout for the reply.
func (m *muxConn) call(typ byte, payload []byte, timeout time.Duration) ([]byte, error) {
	cw := callWaiters.Get().(*callWaiter)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		callWaiters.Put(cw)
		return nil, errMuxClosed
	}
	m.nextSeq++
	seq := m.nextSeq
	m.inflight[seq] = cw.ch
	m.mu.Unlock()
	m.touch()

	// fail() may now error cw.ch at any time: early returns drop cw.
	buf, err := appendFrame(wirecodec.GetBuf(), seq, typ, payload)
	if err != nil {
		wirecodec.PutBuf(buf)
		m.abandon(seq)
		return nil, err
	}
	// A taken frame reaches the socket or the connection fails, erroring this
	// call through cw.ch; a refused one never left, so a retry is safe.
	if !m.w.write(buf) {
		m.abandon(seq)
		return nil, errMuxClosed
	}

	cw.timer.Reset(timeout)
	select {
	case res := <-cw.ch:
		if cw.timer.Stop() {
			callWaiters.Put(cw)
		}
		if res.err != nil {
			return nil, res.err
		}
		switch res.typ {
		case typeReplyErr:
			err = &RemoteError{Msg: string(res.payload)}
		case typeReplyShed:
			err = fmt.Errorf("%w: %s: %s", ErrShed, m.addr, res.payload)
		default:
			return res.payload, nil
		}
		// The error copied the text out of the pooled reply.
		wirecodec.PutBuf(res.payload)
		return nil, err
	case <-cw.timer.C:
		m.abandon(seq)
		m.t.stats.timeouts.Add(1)
		return nil, fmt.Errorf("%w: call %s after %s", ErrDeadline, m.addr, timeout)
	}
}

// notify writes one notification frame (seq 0) and returns once the frame
// writer took it: no waiter, timer or in-flight entry, and no reply. A frame
// refused because the connection had closed or failed first never left
// (errMuxClosed, so a resend is safe); a taken frame reaches the socket or
// dies with the connection, unreported (at-most-once).
func (m *muxConn) notify(typ byte, payload []byte) error {
	if m.isClosed() {
		return errMuxClosed
	}
	m.touch()
	buf, err := appendFrame(wirecodec.GetBuf(), 0, typ, payload)
	if err != nil {
		wirecodec.PutBuf(buf)
		return err
	}
	if !m.w.write(buf) {
		return errMuxClosed
	}
	return nil
}

// abandon forgets an in-flight registration (failed enqueue or timeout).
func (m *muxConn) abandon(seq uint64) {
	m.mu.Lock()
	delete(m.inflight, seq)
	m.mu.Unlock()
}

// getMux returns the live shared connection to addr, dialing one when none
// exists. Dials to the same address are serialised by a per-address lock so
// a burst of first calls shares one connection instead of racing N dials.
// fresh reports that this call created the connection (a Call that fails on
// a fresh connection must not redial again).
func (t *TCPTransport) getMux(addr string) (mc *muxConn, fresh bool, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %s", ErrClosed, t.addr)
	}
	if mc := t.muxes[addr]; mc != nil && !mc.isClosed() {
		t.mu.Unlock()
		return mc, false, nil
	}
	dl := t.dialing[addr]
	if dl == nil {
		dl = &sync.Mutex{}
		t.dialing[addr] = dl
	}
	t.mu.Unlock()

	dl.Lock()
	defer dl.Unlock()
	// Someone else may have dialed while we waited for the lock.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %s", ErrClosed, t.addr)
	}
	if mc := t.muxes[addr]; mc != nil && !mc.isClosed() {
		t.mu.Unlock()
		return mc, false, nil
	}
	t.mu.Unlock()

	conn, derr := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if derr != nil {
		return nil, false, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, addr, derr)
	}
	mc = newMuxConn(t, addr, conn)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, false, fmt.Errorf("%w: %s", ErrClosed, t.addr)
	}
	if t.dialed[addr] {
		t.stats.reconnects.Add(1)
	}
	t.dialed[addr] = true
	t.muxes[addr] = mc
	t.wg.Add(1)
	t.mu.Unlock()
	go mc.readLoop()
	return mc, true, nil
}

// Call implements Transport.
func (t *TCPTransport) Call(addr, msgType string, payload []byte) ([]byte, error) {
	return t.CallOpts(addr, msgType, payload, CallOpts{})
}

// CallOpts implements Transport. A zero opts.Timeout means the transport's
// configured CallTimeout. A one-way type (TypeMatch) is sent as a
// notification: CallOpts returns (nil, nil) once the frame writer took the
// frame, without waiting for the peer, and opts.RTT receives that write time.
func (t *TCPTransport) CallOpts(addr, msgType string, payload []byte, opts CallOpts) ([]byte, error) {
	typ, err := typeByte(msgType)
	if err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = t.cfg.CallTimeout
	}
	if !oneWay(typ) {
		t.stats.inFlight.Add(1)
		defer t.stats.inFlight.Add(-1)
	}
	var start time.Time
	if opts.RTT != nil {
		//clashvet:ignore clockcheck RTT of a real socket call is wall-clock by definition
		start = time.Now()
	}
	mc, fresh, err := t.getMux(addr)
	if err != nil {
		return nil, err
	}
	reply, err := mc.send(typ, payload, timeout)
	if errors.Is(err, errMuxClosed) && !fresh {
		// The shared connection died before our frame was written (e.g. the
		// peer's idle reaper closed it); the request never made it out, so
		// one retry on a fresh connection is safe even for non-idempotent
		// messages.
		mc, _, derr := t.getMux(addr)
		if derr != nil {
			return nil, derr
		}
		reply, err = mc.send(typ, payload, timeout)
	}
	if err != nil {
		switch {
		case IsRemote(err),
			errors.Is(err, ErrFrameTooLarge),
			errors.Is(err, ErrDeadline),
			errors.Is(err, ErrShed):
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	if opts.RTT != nil {
		//clashvet:ignore clockcheck RTT of a real socket call is wall-clock by definition
		*opts.RTT = time.Since(start)
	}
	return reply, nil
}
