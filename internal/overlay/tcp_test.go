package overlay

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"clash/internal/wirecodec"
)

// echoHandler answers every request with "r:" followed by its payload.
func echoHandler(_ string, payload []byte) ([]byte, error) {
	return append([]byte("r:"), payload...), nil
}

// listenPair starts a server transport with handler h and a client transport.
func listenPair(t *testing.T, h Handler) (srv, cli *TCPTransport) {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHandler(h)
	cli, err = ListenTCP("127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, cli
}

// readReplies reads n reply frames from r and checks that each answers one
// of want's sequence IDs with the expected payload, in any order.
func readReplies(t *testing.T, r *bufio.Reader, want map[uint64][]byte) {
	t.Helper()
	for n := len(want); n > 0; n-- {
		f, err := readFrameInto(r, nil)
		if err != nil {
			t.Fatalf("reading reply (%d outstanding): %v", n, err)
		}
		exp, ok := want[f.seq]
		if !ok {
			t.Fatalf("unexpected or duplicate reply seq %d", f.seq)
		}
		if f.typ != typeReplyOK || !bytes.Equal(f.payload, exp) {
			t.Fatalf("seq %d reply = (%#x, %q), want (typeReplyOK, %q)", f.seq, f.typ, f.payload, exp)
		}
		delete(want, f.seq)
	}
}

// TestTCPHalfCloseFlushesReplies pins serveConn's shutdown promise: a peer
// that pipelines requests and then half-closes its write side still receives
// every reply, including those whose handlers were still running at EOF.
func TestTCPHalfCloseFlushesReplies(t *testing.T) {
	const n = 64
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		time.Sleep(5 * time.Millisecond) // still running when EOF arrives
		return echoHandler(msgType, payload)
	})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var reqs []byte
	want := make(map[uint64][]byte, n)
	for i := uint64(1); i <= n; i++ {
		msg := []byte(fmt.Sprintf("half-%d", i))
		if reqs, err = appendFrame(reqs, i, typePing, msg); err != nil {
			t.Fatal(err)
		}
		want[i] = append([]byte("r:"), msg...)
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	readReplies(t, br, want)
	// With every reply flushed, the server closes its side.
	if _, err := readFrameInto(br, nil); !errors.Is(err, io.EOF) {
		t.Errorf("after the last reply: %v, want EOF", err)
	}
}

// waitGoroutines polls until cond accepts the live goroutine count or the
// deadline passes, and returns the last count seen.
func waitGoroutines(cond func(int) bool) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if cond(n) || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPDispatchWorkersSettle bounds the goroutines a burst leaves behind:
// after 200 concurrent calls on one connection, at most maxParked
// dispatch workers stay parked next to the fixed loops, and Close returns the
// goroutine count to its baseline.
func TestTCPDispatchWorkersSettle(t *testing.T) {
	const (
		calls = 200
		wave  = 32 // requests held at once, so the burst needs many workers
		// Two accept loops, the server's read loop, the client's demux loop.
		fixedLoops = 4
	)
	base := runtime.NumGoroutine()
	var (
		mu      sync.Mutex
		arrived int
		release = make(chan struct{})
	)
	srv, cli := listenPair(t, func(msgType string, payload []byte) ([]byte, error) {
		mu.Lock()
		arrived++
		if arrived == wave {
			close(release)
		}
		mu.Unlock()
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("wave never completed")
		}
		return echoHandler(msgType, payload)
	})

	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("b%03d", i))
			reply, err := cli.Call(srv.Addr(), TypePing, msg)
			if err == nil && string(reply) != "r:"+string(msg) {
				err = fmt.Errorf("call %d got %q", i, reply)
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.numServing(); got != 1 {
		t.Errorf("server connections = %d, want 1", got)
	}

	limit := base + fixedLoops + maxParked
	if n := waitGoroutines(func(n int) bool { return n <= limit }); n > limit {
		t.Errorf("goroutines after the burst = %d, want <= %d (baseline %d + %d loops + %d idle workers)",
			n, limit, base, fixedLoops, maxParked)
	}
	cli.Close()
	srv.Close()
	if n := waitGoroutines(func(n int) bool { return n <= base }); n > base {
		t.Errorf("goroutines after Close = %d, want <= baseline %d", n, base)
	}
}

// TestTCPFramingThroughBufferedReader feeds both read loops frames packed
// many to a write and a frame split one byte per write, with payloads on
// both sides of the read buffer's size.
func TestTCPFramingThroughBufferedReader(t *testing.T) {
	payload := func(i int) []byte {
		if i%5 == 0 {
			return bytes.Repeat([]byte{byte('a' + i%26)}, 3*frameReadBuffer+i)
		}
		return []byte(fmt.Sprintf("p%d", i))
	}
	writeBytewise := func(conn net.Conn, frame []byte) error {
		for i := range frame {
			if _, err := conn.Write(frame[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	}

	t.Run("server", func(t *testing.T) {
		srv, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetHandler(echoHandler)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(conn)

		var packed []byte
		want := make(map[uint64][]byte)
		for i := 1; i <= 40; i++ {
			if packed, err = appendFrame(packed, uint64(i), typePing, payload(i)); err != nil {
				t.Fatal(err)
			}
			want[uint64(i)] = append([]byte("r:"), payload(i)...)
		}
		if _, err := conn.Write(packed); err != nil {
			t.Fatal(err)
		}
		readReplies(t, br, want)

		for _, i := range []int{41, 45} { // a small and a large payload
			split, err := appendFrame(nil, uint64(i), typePing, payload(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := writeBytewise(conn, split); err != nil {
				t.Fatal(err)
			}
			readReplies(t, br, map[uint64][]byte{uint64(i): append([]byte("r:"), payload(i)...)})
		}
	})

	t.Run("client", func(t *testing.T) {
		// A hand-rolled peer answers the transport's requests: first a batch
		// of replies in one write, then replies dribbled a byte at a time.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		cli, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()

		const batch = 40
		peerErr := make(chan error, 1)
		go func() {
			peerErr <- func() error {
				conn, err := ln.Accept()
				if err != nil {
					return err
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				var replies []byte
				for i := 0; i < batch; i++ {
					f, err := readFrameInto(br, nil)
					if err != nil {
						return err
					}
					if replies, err = appendFrame(replies, f.seq, typeReplyOK, f.payload); err != nil {
						return err
					}
				}
				if _, err := conn.Write(replies); err != nil {
					return err
				}
				for i := 0; i < 2; i++ {
					f, err := readFrameInto(br, nil)
					if err != nil {
						return err
					}
					split, err := appendFrame(nil, f.seq, typeReplyOK, f.payload)
					if err != nil {
						return err
					}
					if err := writeBytewise(conn, split); err != nil {
						return err
					}
				}
				// Hold the connection until the client hangs up.
				_, err = io.Copy(io.Discard, conn)
				return err
			}()
		}()

		call := func(i int) error {
			reply, err := cli.CallOpts(ln.Addr().String(), TypePing, payload(i), CallOpts{Timeout: 10 * time.Second})
			if err != nil {
				return fmt.Errorf("call %d: %w", i, err)
			}
			if !bytes.Equal(reply, payload(i)) {
				return fmt.Errorf("call %d reply = %d bytes, want %d", i, len(reply), len(payload(i)))
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make(chan error, batch)
		for i := 1; i <= batch; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := call(i); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		for _, i := range []int{41, 45} {
			if err := call(i); err != nil {
				t.Error(err)
			}
		}
		cli.Close()
		if err := <-peerErr; err != nil {
			t.Errorf("peer: %v", err)
		}
	})
}

// TestTCPCallAllocs caps the allocations of one loopback Call, counted on
// both ends: request framing, the server's read, dispatch and reply, and the
// client's demux. Pooled frames, reused dispatch workers, recycled call
// waiters, frame headers decoded in each connection's read buffer and a reply
// read into a pooled buffer the caller recycles leave none.
func TestTCPCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// Like every real handler (marshalMsg), reply in a pooled buffer.
	srv, cli := listenPair(t, func(string, []byte) ([]byte, error) {
		return append(wirecodec.GetBuf(), "pong"...), nil
	})
	defer srv.Close()
	defer cli.Close()
	payload := []byte("ping")
	call := func() {
		reply, err := cli.Call(srv.Addr(), TypePing, payload)
		if err != nil {
			t.Fatal(err)
		}
		if string(reply) != "pong" {
			t.Fatalf("reply %q, want pong", reply)
		}
		wirecodec.PutBuf(reply)
	}
	for i := 0; i < 100; i++ {
		call() // dial, spawn the parked worker, warm the pools
	}
	// Measured 0 with go1.24, the toolchain CI builds with. Timers (the
	// pooled callWaiter holds one) differ between Go versions, and go.mod
	// still admits go 1.22, so the ceiling keeps one allocation of headroom;
	// the escaping header array this gate guards against costs 2 more, an
	// exact-size reply read 1.
	const ceiling = 1
	if allocs := testing.AllocsPerRun(500, call); allocs > ceiling {
		t.Errorf("allocations per Call = %v, want <= %d", allocs, ceiling)
	}
}

// TestTCPMatchIsOneWay pins the one-way match push: CallOpts returns without
// a reply, the handler still runs, the server writes no frame for it and the
// call never counts as in flight. One dispatch slot orders the check: the
// ping behind the match can only be dispatched once the match's worker let
// go of the slot, which it does after writing any reply.
func TestTCPMatchIsOneWay(t *testing.T) {
	srv, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	matched := make(chan string, 1)
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if msgType == TypeMatch {
			matched <- string(payload)
			return append(wirecodec.GetBuf(), "unread"...), nil
		}
		return echoHandler(msgType, payload)
	})
	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var rtt time.Duration
	reply, err := cli.CallOpts(srv.Addr(), TypeMatch, []byte("m1"), CallOpts{RTT: &rtt})
	if err != nil || reply != nil {
		t.Fatalf("match call = (%q, %v), want (nil, nil)", reply, err)
	}
	if rtt <= 0 {
		t.Errorf("RTT = %v, want the write time", rtt)
	}
	if st := cli.Stats(); st.InFlight != 0 || st.FramesOut != 1 {
		t.Errorf("client in-flight %d, frames out %d after a match; want 0, 1", st.InFlight, st.FramesOut)
	}
	select {
	case got := <-matched:
		if got != "m1" {
			t.Fatalf("handler saw %q, want m1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("match handler never ran")
	}
	if reply, err := cli.Call(srv.Addr(), TypePing, []byte("p")); err != nil || string(reply) != "r:p" {
		t.Fatalf("ping after match = (%q, %v)", reply, err)
	}
	if st := srv.Stats(); st.FramesIn != 2 || st.FramesOut != 1 {
		t.Errorf("server frames in %d, out %d; want 2 in, 1 out (the ping's reply only)", st.FramesIn, st.FramesOut)
	}
	if st := cli.Stats(); st.FramesIn != 1 || st.InFlight != 0 {
		t.Errorf("client frames in %d, in-flight %d; want 1, 0", st.FramesIn, st.InFlight)
	}
}

// TestTCPNotificationShedWritesNothing saturates the only dispatch slot: a
// notification that cannot get it within ShedWait is dropped and counted in
// Shed, and no shed reply is written for it.
func TestTCPNotificationShedWritesNothing(t *testing.T) {
	srv, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{MaxConcurrent: 1, ShedWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stall := make(chan struct{})
	var matches sync.WaitGroup
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		switch msgType {
		case TypeStatus:
			<-stall // wedge the only dispatch slot
		case TypeMatch:
			matches.Done()
		}
		return []byte("done"), nil
	})
	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	stalled := make(chan error, 1)
	go func() {
		_, err := cli.CallOpts(srv.Addr(), TypeStatus, nil, CallOpts{Timeout: 5 * time.Second})
		stalled <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().FramesIn == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the stalling call never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cli.Call(srv.Addr(), TypeMatch, []byte("m")); err != nil {
		t.Fatalf("match call: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Shed == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the notification was never shed")
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.Shed != 1 || st.FramesOut != 0 {
		t.Errorf("server shed %d, frames out %d; want 1 shed and no frame written", st.Shed, st.FramesOut)
	}

	close(stall)
	if err := <-stalled; err != nil {
		t.Fatalf("stalled call after release: %v", err)
	}
	// The connection keeps serving: a notification now gets the slot.
	matches.Add(1)
	if _, err := cli.Call(srv.Addr(), TypeMatch, []byte("m")); err != nil {
		t.Fatalf("match call after release: %v", err)
	}
	matches.Wait()
	if st := srv.Stats(); st.Shed != 1 || st.FramesOut != 1 {
		t.Errorf("server shed %d, frames out %d; want 1, 1 (the stalled call's reply)", st.Shed, st.FramesOut)
	}
}

// TestTCPZeroSeqReplyIgnored plays an older peer that answers notifications:
// a stray reply with sequence ID 0 arrives ahead of two in-flight calls'
// replies, and both calls still get their own reply on the same connection.
func TestTCPZeroSeqReplyIgnored(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			peerErr <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var out []byte
		var reqs []frame
		for len(reqs) < 2 {
			f, err := readFrameInto(br, nil)
			if err != nil {
				peerErr <- err
				return
			}
			reqs = append(reqs, f)
		}
		out, _ = appendFrame(out, 0, typeReplyOK, []byte("stray"))
		for i := len(reqs) - 1; i >= 0; i-- {
			out, _ = appendFrame(out, reqs[i].seq, typeReplyOK, append([]byte("r:"), reqs[i].payload...))
		}
		if _, err := conn.Write(out); err != nil {
			peerErr <- err
			return
		}
		// Keep the connection open until the client hangs up.
		_, _ = io.Copy(io.Discard, conn)
		peerErr <- nil
	}()

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, msg := range []string{"a", "b"} {
		wg.Add(1)
		go func(msg string) {
			defer wg.Done()
			reply, err := cli.CallOpts(ln.Addr().String(), TypePing, []byte(msg), CallOpts{Timeout: 5 * time.Second})
			if err != nil || string(reply) != "r:"+msg {
				t.Errorf("call %s = (%q, %v), want r:%s", msg, reply, err, msg)
			}
		}(msg)
	}
	wg.Wait()
	if st := cli.Stats(); st.FramesIn != 3 || st.Reconnects != 0 || st.InFlight != 0 {
		t.Errorf("client frames in %d, reconnects %d, in-flight %d; want 3, 0, 0", st.FramesIn, st.Reconnects, st.InFlight)
	}
	cli.Close()
	if err := <-peerErr; err != nil {
		t.Errorf("peer: %v", err)
	}
}

// TestTCPMatchWithSeqGetsReply plays an older sender: a match frame with a
// nonzero sequence ID is a call, and the server answers it.
func TestTCPMatchWithSeqGetsReply(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(echoHandler)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := appendFrame(nil, 7, typeMatch, []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	readReplies(t, bufio.NewReader(conn), map[uint64][]byte{7: []byte("r:old")})
}

// TestTCPIdleReap pins the amortized idle deadline: armed once, it still
// reaps an idle inbound connection within 2×IdleTimeout, and it never reaps
// one that carries a call every 50 ms across three idle windows.
func TestTCPIdleReap(t *testing.T) {
	const idle = 300 * time.Millisecond
	srv, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{IdleTimeout: idle})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(echoHandler)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection read = %v, want EOF from the server's reap", err)
	}
	if waited := time.Since(start); waited > 2*idle {
		t.Errorf("idle connection reaped after %v, want within %v", waited, 2*idle)
	}
	// The server deregisters the reaped connection before closing it.
	if n := srv.numServing(); n != 0 {
		t.Fatalf("server connections = %d right after the reap's EOF, want 0", n)
	}

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for end := time.Now().Add(3 * idle); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if _, err := cli.Call(srv.Addr(), TypePing, []byte("x")); err != nil {
			t.Fatalf("call: %v", err)
		}
		if n := srv.numServing(); n != 1 {
			t.Fatalf("server connections = %d, want 1", n)
		}
	}
	if st := cli.Stats(); st.Reconnects != 0 {
		t.Errorf("reconnects = %d, want 0 (a busy connection must not be reaped)", st.Reconnects)
	}
}

// TestTCPWriteDeadlineStalledReader pins the amortized write deadline: a peer
// that accepts but never reads fills the socket buffers with notifications
// until one write blocks; that write fails within 2×CallTimeout and the next
// call redials.
func TestTCPWriteDeadlineStalledReader(t *testing.T) {
	const callTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn // held open, never read
		}
	}()
	defer func() {
		for {
			select {
			case c := <-accepted:
				c.Close()
			default:
				return
			}
		}
	}()

	cli, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{CallTimeout: callTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	payload := make([]byte, 1<<20)
	var longest time.Duration
	for i := 0; cli.Stats().Reconnects == 0; i++ {
		if i == 256 {
			t.Fatal("256 MiB written to a peer that never reads without a write blocking")
		}
		start := time.Now()
		if _, err := cli.Call(ln.Addr().String(), TypeMatch, payload); err != nil {
			t.Fatalf("notification %d: %v", i, err)
		}
		longest = max(longest, time.Since(start))
	}
	// The upper bound allows 200 ms of scheduling delay past 2×CallTimeout;
	// a deadline armed any further ahead overshoots it.
	if longest < callTimeout/2 || longest > 2*callTimeout+200*time.Millisecond {
		t.Errorf("the blocked write returned after %v, want within (%v, %v]", longest, callTimeout/2, 2*callTimeout)
	}
}

// TestTCPMatchNotifyAllocs holds a one-way match push at 0 allocations in
// steady state, counted on both ends: framing into a pooled buffer, the
// writer, the server's read and dispatch to a parked worker. No waiter,
// timer or reply is involved.
func TestTCPMatchNotifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	handled := make(chan struct{}, 1)
	srv, cli := listenPair(t, func(string, []byte) ([]byte, error) {
		handled <- struct{}{}
		return nil, nil
	})
	defer srv.Close()
	defer cli.Close()
	payload := []byte("match")
	notify := func() {
		if _, err := cli.Call(srv.Addr(), TypeMatch, payload); err != nil {
			t.Fatal(err)
		}
		<-handled
	}
	for i := 0; i < 100; i++ {
		notify() // dial, spawn the parked worker, warm the pools
	}
	if allocs := testing.AllocsPerRun(500, notify); allocs > 0 {
		t.Errorf("allocations per one-way match = %v, want 0", allocs)
	}
}

// TestTCPRepliesOwnedByCaller runs testRepliesOwnedByCaller on loopback TCP,
// where the calls pipeline over one connection and its reader loop reads
// every reply into a pooled buffer.
func TestTCPRepliesOwnedByCaller(t *testing.T) {
	srv, cli := listenPair(t, nil)
	defer srv.Close()
	defer cli.Close()
	testRepliesOwnedByCaller(t, srv, cli)
}

// TestTCPLateReplyRecycled sends a call that times out before its reply: the
// reply that arrives later finds no waiter and goes back to the pool, and the
// calls after it, each keeping its reply, still read their own bytes.
func TestTCPLateReplyRecycled(t *testing.T) {
	release := make(chan struct{})
	srv, cli := listenPair(t, func(_ string, payload []byte) ([]byte, error) {
		if string(payload) == "slow" {
			<-release
		}
		return append(append(wirecodec.GetBuf(), "r:"...), payload...), nil
	})
	defer srv.Close()
	defer cli.Close()
	if _, err := cli.Call(srv.Addr(), TypePing, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	_, err := cli.CallOpts(srv.Addr(), TypePing, []byte("slow"), CallOpts{Timeout: 20 * time.Millisecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("slow call = %v, want ErrDeadline", err)
	}
	framesIn := cli.Stats().FramesIn
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for cli.Stats().FramesIn == framesIn {
		if time.Now().After(deadline) {
			t.Fatal("the late reply never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	var kept [][]byte
	for i := 0; i < 100; i++ {
		reply, err := cli.Call(srv.Addr(), TypePing, []byte(fmt.Sprintf("after-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, reply)
		// Draw and scribble on pooled buffers, as other callers would: a
		// kept reply that were still in the pool would change under them.
		b := append(wirecodec.GetBuf(), "scribble-scribble"...)
		wirecodec.PutBuf(b)
	}
	for i, reply := range kept {
		if want := fmt.Sprintf("r:after-%d", i); string(reply) != want {
			t.Errorf("reply %d reads %q, want %q", i, reply, want)
		}
	}
}

// TestTCPSocketCounts checks the syscall counters: sequential calls cost the
// client one writev each and the server one writev per reply, and every
// frame arrives in at least one read that returned bytes. The in-memory
// fabric has no sockets and counts none.
func TestTCPSocketCounts(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(echoHandler)
	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const calls = 10
	for i := 0; i < calls; i++ {
		reply, err := cli.Call(srv.Addr(), TypePing, []byte("p"))
		if err != nil {
			t.Fatal(err)
		}
		wirecodec.PutBuf(reply)
	}
	for name, st := range map[string]TransportStats{"client": cli.Stats(), "server": srv.Stats()} {
		if st.SocketWrites != calls || st.SocketReads < calls || st.SocketReads > 2*calls {
			t.Errorf("%s: socket writes %d, reads %d; want %d writes and %d to %d reads", name, st.SocketWrites, st.SocketReads, calls, calls, 2*calls)
		}
	}

	netw := NewMemNetwork()
	a, b := netw.Endpoint("a"), netw.Endpoint("b")
	b.SetHandler(echoHandler)
	if _, err := a.Call("b", TypePing, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.SocketReads != 0 || st.SocketWrites != 0 {
		t.Errorf("in-memory endpoint counts socket reads %d, writes %d; want 0", st.SocketReads, st.SocketWrites)
	}
}
