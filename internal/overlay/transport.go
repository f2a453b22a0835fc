package overlay

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Transport errors.
var (
	// ErrUnreachable is returned by Call when the remote endpoint cannot be
	// reached (connection refused, endpoint down, transport closed).
	ErrUnreachable = errors.New("overlay: endpoint unreachable")
	// ErrClosed is returned by operations on a closed transport.
	ErrClosed = errors.New("overlay: transport closed")
	// ErrDeadline is returned when a call's deadline expired before the reply
	// arrived. The request may or may not have reached the peer — a gray
	// outcome, distinct from the hard ErrUnreachable — so only idempotent
	// messages may be resent, and the next call to the peer should allow more
	// time (see suspicion.timeoutFor).
	ErrDeadline = errors.New("overlay: call deadline exceeded")
	// ErrShed is returned when the remote server shed the request under
	// overload before dispatching it. The handler never ran, so retrying with
	// backoff is safe for any message type.
	ErrShed = errors.New("overlay: request shed by overloaded server")
)

// RemoteError is an application-level error returned by the remote handler
// (as opposed to a transport failure). The remote message survives the wire;
// the remote error chain does not.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "overlay: remote error: " + e.Msg }

// IsRemote reports whether err is an application error relayed from the
// remote handler rather than a transport failure.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// Handler processes one inbound request frame and returns the reply payload.
// Returning an error sends a typeReplyErr reply carrying the error text; the
// error never tears down the connection. Handlers run concurrently (the TCP
// transport dispatches pipelined requests in parallel), so they must be safe
// for concurrent use.
//
// Buffer ownership: the request payload lives in a pooled buffer owned by the
// transport and is valid only for the duration of the call — a handler that
// retains any of its bytes (directly or through a decoded message that aliases
// them) must copy them first. The returned reply transfers ownership to the
// transport, which encodes it into the reply frame and may recycle it into the
// same pool; a reply must therefore be a fresh or pool-drawn buffer, never a
// slice aliasing the request payload or any long-lived state. The caller
// never sees the handler's buffer: Call hands it a copy of its own.
type Handler func(msgType string, payload []byte) ([]byte, error)

// TransportStats is a snapshot of one transport's cumulative counters,
// surfaced through the node status endpoint and printed by clashload.
type TransportStats struct {
	// FramesIn / FramesOut count complete frames read and handed to the
	// connection for writing (requests and replies alike).
	FramesIn  uint64 `json:"framesIn"`
	FramesOut uint64 `json:"framesOut"`
	// BytesIn / BytesOut count frame bytes, headers included.
	BytesIn  uint64 `json:"bytesIn"`
	BytesOut uint64 `json:"bytesOut"`
	// InFlight is the number of outbound Calls currently awaiting a reply
	// (notifications await none and never count).
	InFlight int64 `json:"inFlight"`
	// Reconnects counts outbound connections dialed to replace a broken or
	// expired one (first dials to a peer are not reconnects).
	Reconnects uint64 `json:"reconnects"`
	// OversizedDrops counts inbound frames discarded (and answered with a
	// framed error) because their payload exceeded maxFrameSize.
	OversizedDrops uint64 `json:"oversizedDrops"`
	// Timeouts counts outbound calls that failed because their deadline
	// expired before the reply arrived (ErrDeadline).
	Timeouts uint64 `json:"timeouts"`
	// Retries counts resends performed above the transport by the resilient
	// call policy (idempotent retries and shed retries).
	Retries uint64 `json:"retries"`
	// Shed counts inbound requests this server refused under overload
	// (answered with a framed shed reply instead of dispatching; a shed
	// notification is dropped without one).
	Shed uint64 `json:"shed"`
	// SocketReads counts socket reads that returned bytes. Reads that
	// returned none are left out, and so are the retries internal/poll
	// makes after EAGAIN, which the transport never sees: this is a floor
	// on read syscalls. 0 on a MemNetwork.
	SocketReads uint64 `json:"socketReads"`
	// SocketWrites counts writev flushes, each carrying every frame queued
	// on its connection at the time; a flush the kernel accepts only in
	// part is still one. 0 on a MemNetwork.
	SocketWrites uint64 `json:"socketWrites"`
}

// transportStats is the shared atomic counter block embedded by both
// transports.
type transportStats struct {
	framesIn, framesOut atomic.Uint64
	bytesIn, bytesOut   atomic.Uint64
	inFlight            atomic.Int64
	reconnects          atomic.Uint64
	oversizedDrops      atomic.Uint64
	timeouts            atomic.Uint64
	retries             atomic.Uint64
	shed                atomic.Uint64
	socketReads         atomic.Uint64
	socketWrites        atomic.Uint64
}

func (s *transportStats) countIn(bytes int) {
	s.framesIn.Add(1)
	s.bytesIn.Add(uint64(bytes))
}

func (s *transportStats) countOut(bytes int) {
	s.framesOut.Add(1)
	s.bytesOut.Add(uint64(bytes))
}

func (s *transportStats) snapshot() TransportStats {
	return TransportStats{
		FramesIn:       s.framesIn.Load(),
		FramesOut:      s.framesOut.Load(),
		BytesIn:        s.bytesIn.Load(),
		BytesOut:       s.bytesOut.Load(),
		InFlight:       s.inFlight.Load(),
		Reconnects:     s.reconnects.Load(),
		OversizedDrops: s.oversizedDrops.Load(),
		Timeouts:       s.timeouts.Load(),
		Retries:        s.retries.Load(),
		Shed:           s.shed.Load(),
		SocketReads:    s.socketReads.Load(),
		SocketWrites:   s.socketWrites.Load(),
	}
}

// defaultCallTimeout is the deadline of a call whose CallOpts leave it zero,
// unless TCPConfig.CallTimeout sets another.
const defaultCallTimeout = 10 * time.Second

// CallOpts tunes one Call. The zero value is the transport's legacy behavior
// (its default deadline, no latency report).
type CallOpts struct {
	// Timeout bounds the whole exchange. Zero means the transport default:
	// TCPConfig.CallTimeout on TCP, defaultCallTimeout on a MemNetwork
	// (whose calls never expire while no link model or fault is installed).
	Timeout time.Duration
	// RTT, when non-nil, receives the observed round-trip latency of a
	// successful exchange. A MemNetwork on the simulator's clock models
	// latency rather than incurring it and reports the modeled value here,
	// for remote errors too; wall-clock transports may leave it untouched and
	// let the caller measure elapsed time.
	RTT *time.Duration
}

// Transport is the messaging substrate an overlay node or client runs on:
// a listening endpoint with an address peers can Call, plus the outbound Call
// primitive. Implementations must be safe for concurrent use, and concurrent
// Calls to the same address must be able to share one underlying connection
// (pipelining): a Call never waits for an unrelated Call's reply.
//
// Two implementations exist: MemNetwork endpoints for in-process tests,
// benchmarks and the simulator, and TCPTransport for real deployments. Both
// speak the same framed wire protocol (wire.go).
type Transport interface {
	// Addr returns the endpoint's address, which doubles as its identity:
	// the chord ring position is the hash of this address and the CLASH
	// ServerID is the address itself.
	Addr() string
	// SetHandler installs the inbound request handler. It must be called
	// before the first Call can be answered; installing nil drops requests
	// with an error reply.
	SetHandler(h Handler)
	// Call sends one request frame to addr and waits for the reply frame
	// with the matching sequence ID. It returns ErrUnreachable (wrapped) on
	// transport failure and a *RemoteError when the remote handler returned
	// an error. On TCP a one-way type (TypeMatch) is a notification instead:
	// Call returns (nil, nil) once the connection's writer took the frame,
	// and neither the handler's error nor a frame lost with a dying
	// connection comes back. The in-memory fabric still runs every type as a
	// round trip.
	//
	// Reply ownership: the reply belongs to the caller and lives in a pooled
	// buffer (wirecodec.GetBuf); an empty reply is nil. A caller that is
	// done with it, and keeps nothing aliasing it (a decode that copies its
	// strings out, say), may hand it back with wirecodec.PutBuf so the next
	// reply reuses it; a caller that keeps the reply simply leaves it to the
	// garbage collector.
	Call(addr, msgType string, payload []byte) ([]byte, error)
	// CallOpts is Call with per-call options: a deadline (ErrDeadline when it
	// expires before the reply) and an optional latency report. Call is
	// CallOpts with the zero options, and its reply is owned the same way.
	CallOpts(addr, msgType string, payload []byte, opts CallOpts) ([]byte, error)
	// Stats returns the transport's cumulative counters.
	Stats() TransportStats
	// Close releases the endpoint. Outstanding and future Calls fail.
	Close() error
}

// RetryRecorder is implemented by transports whose stats block can attribute
// retries performed above the transport (the resilient call policy's resends
// count in the transport's Stats so one snapshot tells the whole story).
type RetryRecorder interface {
	// RecordRetry notes one policy-level resend.
	RecordRetry()
}

// dispatch invokes h if non-nil, standardising the nil-handler error.
func dispatch(h Handler, msgType string, payload []byte) ([]byte, error) {
	if h == nil {
		return nil, fmt.Errorf("no handler installed")
	}
	if msgType == "" {
		return nil, fmt.Errorf("unknown message type byte")
	}
	return h(msgType, payload)
}
