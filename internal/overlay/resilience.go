package overlay

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// The resilient call path's deadlines and retry policy. The short class
// covers liveness and ring maintenance (a wedged stabilize round must cost
// far less than the old blanket 10s timeout), the data class covers
// object/query traffic, and the bulk class covers snapshot-sized transfers —
// which is also the hard ceiling any adaptive deadline may escalate to.
// maxAttempts bounds the attempts of one logical call (first try plus
// retries) for idempotent and shed-retryable messages; retryBackoff is the
// base of the jittered exponential backoff between attempts, capped at
// maxBackoff.
const (
	shortTimeout = 2500 * time.Millisecond
	dataTimeout  = 5 * time.Second
	bulkTimeout  = 10 * time.Second
	maxAttempts  = 3
	retryBackoff = 25 * time.Millisecond
	maxBackoff   = time.Second
)

// classTimeout maps a message type to its deadline class.
func classTimeout(msgType string) time.Duration {
	switch msgType {
	case TypePing, TypeFindSuccessor, TypeSuccessor, TypePredecessor,
		TypeNotify, TypeLoadReport, TypeChildMoved, TypeTopology:
		return shortTimeout
	case TypeAcceptKeyGroup, TypeReplicateKeyGroup, TypeRecoverKeyGroups:
		return bulkTimeout
	default:
		return dataTimeout
	}
}

// idempotentTypes lists the messages a caller may safely resend after an
// ambiguous failure: reads (lookups, ping, status, recover), last-write-wins
// notifications (notify, load_report, child_moved), and replicate — ordered
// by (incarnation, version): a duplicate full push collapses into the same
// state, and a duplicate delta, which applies only on top of its base
// version, finds the stored version already at or past its own and is
// ignored. Excluded: accept_object/accept_batch (a resend double-meters the
// packet's load), accept_keygroup and release_keygroup (ownership hand-offs:
// a failed accept_keygroup is taken back and re-sent by the next
// reconciliation under a newer epoch, a failed release_keygroup is retried
// as a parked reclaim), and match (at-most-once delivery to subscribers).
var idempotentTypes = map[string]bool{
	TypePing:              true,
	TypeFindSuccessor:     true,
	TypeSuccessor:         true,
	TypePredecessor:       true,
	TypeNotify:            true,
	TypeLoadReport:        true,
	TypeChildMoved:        true,
	TypeReplicateKeyGroup: true,
	TypeRecoverKeyGroups:  true,
	TypeStatus:            true,
	TypeTopology:          true,
}

// caller is a node's resilient RPC path: every outbound call picks an
// adaptive per-peer deadline (suspicion.timeoutFor), feeds the outcome back
// into the suspicion tracker, and retries with jittered exponential backoff
// where a resend is safe — idempotent messages after hard failures, and any
// message after a shed (the handler never ran). Deadline expiries are never
// retried within one logical call: the escalated deadline applies to the
// next call, so a wedged peer costs each caller at most one timeout per
// exchange.
type caller struct {
	tr   Transport
	rr   RetryRecorder // non-nil when tr counts policy-level retries
	susp *suspicion
	now  func() time.Time
	// sleep implements the backoff delay; nil disables backoff entirely
	// (the single-threaded simulator, where sleeping inside an event would
	// wedge the engine — retries go back-to-back in virtual time and no
	// jitter PRNG draw happens, preserving determinism).
	sleep func(time.Duration)

	mu  sync.Mutex
	rng *rand.Rand
}

func newCaller(tr Transport, susp *suspicion, now func() time.Time, sleep func(time.Duration), seed int64) *caller {
	c := &caller{
		tr:    tr,
		susp:  susp,
		now:   now,
		sleep: sleep,
	}
	c.rr, _ = tr.(RetryRecorder)
	if sleep != nil {
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c
}

// rttCells recycles the RTT out-parameter of CallOpts: a pointer passed
// through the Transport interface escapes, so a local Duration would cost an
// allocation on every call (every match push among them).
var rttCells = sync.Pool{New: func() any { return new(time.Duration) }}

// call performs one logical RPC under the call policy and returns the reply
// payload. Errors keep their transport identity (ErrDeadline, ErrShed,
// ErrUnreachable wraps, *RemoteError).
func (c *caller) call(addr, msgType string, payload []byte) ([]byte, error) {
	class := classTimeout(msgType)
	idempotent := idempotentTypes[msgType]
	rtt := rttCells.Get().(*time.Duration)
	defer rttCells.Put(rtt)
	for attempt := 0; ; attempt++ {
		timeout := c.susp.timeoutFor(addr, class, bulkTimeout)
		*rtt = 0
		start := c.now()
		reply, err := c.tr.CallOpts(addr, msgType, payload, CallOpts{Timeout: timeout, RTT: rtt})
		if err == nil || IsRemote(err) {
			// A remote application error still proves the peer alive.
			d := *rtt
			if d == 0 {
				d = c.now().Sub(start)
			}
			c.susp.observeSuccess(addr, d)
			return reply, err
		}
		shed := errors.Is(err, ErrShed)
		gray := errors.Is(err, ErrDeadline)
		c.susp.observeFailure(addr, gray || shed)
		retryable := shed || (idempotent && !gray)
		if !retryable || attempt+1 >= maxAttempts {
			return nil, err
		}
		if c.rr != nil {
			c.rr.RecordRetry()
		}
		c.backoff(attempt)
	}
}

// backoff sleeps a jittered exponential delay: half the doubled base plus a
// uniform random half, capped at maxBackoff.
func (c *caller) backoff(attempt int) {
	if c.sleep == nil {
		return
	}
	d := retryBackoff << uint(attempt)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)))
	c.mu.Unlock()
	c.sleep(d/2 + jitter/2)
}
