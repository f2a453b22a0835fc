package overlay

import (
	"errors"
	"sync"
	"testing"
	"time"

	"clash/internal/chord"
)

// fakeClock is a manually advanced time source for suspicion tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestSuspicionStateTransitions(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newSuspicion(clk.now)

	if got := s.state("a"); got != chord.PeerUnknown {
		t.Fatalf("fresh peer state = %v, want Unknown", got)
	}

	// Gray failures: suspect until suspicionDeadAfter, then dead.
	s.observeFailure("a", true)
	if got := s.state("a"); got != chord.PeerSuspect {
		t.Fatalf("after 1 gray failure state = %v, want Suspect", got)
	}
	s.observeFailure("a", true)
	if got := s.state("a"); got != chord.PeerSuspect {
		t.Fatalf("after 2 gray failures state = %v, want Suspect", got)
	}
	s.observeFailure("a", true)
	if got := s.state("a"); got != chord.PeerDead {
		t.Fatalf("after %d gray failures state = %v, want Dead", suspicionDeadAfter, got)
	}

	// One success clears the whole streak.
	s.observeSuccess("a", 10*time.Millisecond)
	if got := s.state("a"); got != chord.PeerUnknown {
		t.Fatalf("after success state = %v, want Unknown", got)
	}

	// A hard failure is dead immediately — crash-stop is not gray.
	s.observeFailure("b", false)
	if got := s.state("b"); got != chord.PeerDead {
		t.Fatalf("after hard failure state = %v, want Dead", got)
	}

	// Evidence goes stale after suspicionTTL: a dead verdict cannot exile a
	// recovered peer forever.
	clk.advance(suspicionTTL + time.Second)
	if got := s.state("b"); got != chord.PeerUnknown {
		t.Fatalf("after TTL state = %v, want Unknown", got)
	}
}

func TestSuspicionAdaptiveTimeout(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newSuspicion(clk.now)
	const class = 2500 * time.Millisecond
	const ceiling = 10 * time.Second

	// No evidence: the class deadline as-is.
	if got := s.timeoutFor("a", class, ceiling); got != class {
		t.Fatalf("default timeout = %v, want %v", got, class)
	}

	// A consistently slow peer earns adaptiveRTTFactor x its EWMA.
	for i := 0; i < 32; i++ {
		s.observeSuccess("a", 2*time.Second)
	}
	got := s.timeoutFor("a", class, ceiling)
	if got < 7*time.Second || got > 8*time.Second {
		t.Fatalf("adaptive timeout = %v, want ~%v", got, 4*2*time.Second)
	}

	// Consecutive gray failures double the deadline, clamped to the ceiling.
	s.observeFailure("b", true)
	if got := s.timeoutFor("b", class, ceiling); got != 2*class {
		t.Fatalf("timeout after 1 gray failure = %v, want %v", got, 2*class)
	}
	for i := 0; i < 10; i++ {
		s.observeFailure("b", true)
	}
	if got := s.timeoutFor("b", class, ceiling); got != ceiling {
		t.Fatalf("escalated timeout = %v, want ceiling %v", got, ceiling)
	}
}

// scriptTransport fails calls according to a script of errors (nil = success)
// and records the attempts it saw.
type scriptTransport struct {
	mu       sync.Mutex
	script   []error
	attempts int
	retries  int
}

func (f *scriptTransport) Addr() string { return "script" }
func (f *scriptTransport) Call(addr, msgType string, payload []byte) ([]byte, error) {
	return f.CallOpts(addr, msgType, payload, CallOpts{})
}

func (f *scriptTransport) CallOpts(addr, msgType string, payload []byte, opts CallOpts) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.attempts < len(f.script) {
		err = f.script[f.attempts]
	}
	f.attempts++
	if err != nil {
		return nil, err
	}
	if opts.RTT != nil {
		*opts.RTT = time.Millisecond
	}
	return []byte("ok"), nil
}

func (f *scriptTransport) RecordRetry() {
	f.mu.Lock()
	f.retries++
	f.mu.Unlock()
}

func (f *scriptTransport) SetHandler(h Handler)  {}
func (f *scriptTransport) Stats() TransportStats { return TransportStats{} }
func (f *scriptTransport) Close() error          { return nil }

func newTestCaller(tr Transport) *caller {
	susp := newSuspicion(time.Now)
	return newCaller(tr, susp, time.Now, func(time.Duration) {}, 1)
}

func TestCallerRetriesShedForAnyType(t *testing.T) {
	// accept_object is NOT idempotent, but a shed is retryable for every
	// type: the handler never ran.
	tr := &scriptTransport{script: []error{ErrShed, nil}}
	c := newTestCaller(tr)
	reply, err := c.call("peer", TypeAcceptObject, nil)
	if err != nil {
		t.Fatalf("call after shed = %v, want success", err)
	}
	if string(reply) != "ok" || tr.attempts != 2 || tr.retries != 1 {
		t.Fatalf("reply=%q attempts=%d retries=%d, want ok/2/1", reply, tr.attempts, tr.retries)
	}
}

func TestCallerRetriesIdempotentHardFailure(t *testing.T) {
	tr := &scriptTransport{script: []error{ErrUnreachable, nil}}
	c := newTestCaller(tr)
	if _, err := c.call("peer", TypePing, nil); err != nil {
		t.Fatalf("idempotent call after hard failure = %v, want success", err)
	}
	if tr.attempts != 2 {
		t.Fatalf("attempts = %d, want 2", tr.attempts)
	}
}

func TestCallerNeverRetriesDeadlineExpiry(t *testing.T) {
	// Even an idempotent message must not be resent after a deadline expiry
	// within one logical call: the escalated deadline applies to the NEXT
	// call, so a wedged peer costs each exchange at most one timeout.
	tr := &scriptTransport{script: []error{ErrDeadline, nil}}
	c := newTestCaller(tr)
	if _, err := c.call("peer", TypePing, nil); !errors.Is(err, ErrDeadline) {
		t.Fatalf("call = %v, want ErrDeadline", err)
	}
	if tr.attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no gray retry)", tr.attempts)
	}
}

func TestCallerNoRetryForNonIdempotentHardFailure(t *testing.T) {
	tr := &scriptTransport{script: []error{ErrUnreachable, nil}}
	c := newTestCaller(tr)
	if _, err := c.call("peer", TypeAcceptObject, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call = %v, want ErrUnreachable", err)
	}
	if tr.attempts != 1 {
		t.Fatalf("attempts = %d, want 1", tr.attempts)
	}
}

func TestCallerGivesUpAfterMaxAttempts(t *testing.T) {
	tr := &scriptTransport{script: []error{ErrShed, ErrShed, ErrShed, ErrShed}}
	c := newTestCaller(tr)
	if _, err := c.call("peer", TypePing, nil); !errors.Is(err, ErrShed) {
		t.Fatalf("call = %v, want ErrShed", err)
	}
	if tr.attempts != maxAttempts {
		t.Fatalf("attempts = %d, want %d", tr.attempts, maxAttempts)
	}
}

func TestTCPServerShedsWhenSaturated(t *testing.T) {
	srv, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{
		MaxConcurrent: 1,
		ShedWait:      100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stall := make(chan struct{})
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if msgType == TypeStatus {
			<-stall // wedge the only dispatch slot
		}
		return []byte("done"), nil
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Occupy the slot with a stalled handler.
	stalled := make(chan error, 1)
	go func() {
		_, err := cli.CallOpts(srv.Addr(), TypeStatus, nil, CallOpts{Timeout: 5 * time.Second})
		stalled <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// The next pipelined request cannot get the slot within ShedWait and
	// must come back as a framed shed, not hang behind the stalled handler.
	start := time.Now()
	_, err = cli.CallOpts(srv.Addr(), TypePing, nil, CallOpts{Timeout: 5 * time.Second})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("saturated call = %v, want ErrShed", err)
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Fatalf("shed took %v, want ~ShedWait", wait)
	}
	if shed := srv.Stats().Shed; shed != 1 {
		t.Fatalf("server shed counter = %d, want 1", shed)
	}

	// Releasing the stalled handler drains the slot and the connection keeps
	// working.
	close(stall)
	if err := <-stalled; err != nil {
		t.Fatalf("stalled call after release: %v", err)
	}
	if _, err := cli.Call(srv.Addr(), TypePing, nil); err != nil {
		t.Fatalf("call after shed: %v", err)
	}
}

func TestTCPStalledPeerDeadline(t *testing.T) {
	// A peer that accepts the connection but never replies must fail the
	// call at its deadline — and the expiry must not poison the multiplexed
	// connection for later calls.
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stall := make(chan struct{})
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if msgType == TypeStatus {
			<-stall // never replies until the test ends
		}
		return []byte("pong"), nil
	})
	defer close(stall)

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	start := time.Now()
	_, err = cli.CallOpts(srv.Addr(), TypeStatus, nil, CallOpts{Timeout: 150 * time.Millisecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("stalled call = %v, want ErrDeadline", err)
	}
	if wait := time.Since(start); wait > 2*time.Second {
		t.Fatalf("deadline took %v, want ~150ms", wait)
	}
	if timeouts := cli.Stats().Timeouts; timeouts != 1 {
		t.Fatalf("client timeout counter = %d, want 1", timeouts)
	}

	// The mux must still route later replies correctly: the expired call's
	// seq was abandoned, not the connection.
	for i := 0; i < 4; i++ {
		reply, err := cli.CallOpts(srv.Addr(), TypePing, nil, CallOpts{Timeout: 2 * time.Second})
		if err != nil {
			t.Fatalf("call %d after deadline: %v", i, err)
		}
		if string(reply) != "pong" {
			t.Fatalf("call %d reply = %q, want pong", i, reply)
		}
	}
	if rec := cli.Stats().Reconnects; rec != 0 {
		t.Fatalf("reconnects = %d, want 0 (deadline must not tear down the connection)", rec)
	}
}
