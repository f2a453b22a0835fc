package overlay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clash/internal/core"
	"clash/internal/sim/link"
	"clash/internal/wirecodec"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		seq     uint64
		typ     byte
		payload []byte
	}{
		{1, typePing, nil},
		{2, typeAcceptObject, []byte{0x18, 0x05, 0x02, 0x01, 0x00}},
		{1 << 40, typeReplyOK, []byte{}},
		{7, typeReplyErr, []byte("boom")},
		{0, typeAcceptBatch, bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, tc := range cases {
		buf, err := appendFrame(nil, tc.seq, tc.typ, tc.payload)
		if err != nil {
			t.Fatalf("appendFrame(%d): %v", tc.seq, err)
		}
		streamed, err := readFrameInto(bufio.NewReader(bytes.NewReader(buf)), nil)
		if err != nil {
			t.Fatalf("readFrameInto(%d): %v", tc.seq, err)
		}
		inPlace, err := decodeFrame(buf)
		if err != nil {
			t.Fatalf("decodeFrame(%d): %v", tc.seq, err)
		}
		for _, got := range []frame{streamed, inPlace} {
			if got.seq != tc.seq || got.typ != tc.typ {
				t.Errorf("frame = (%d, %#x), want (%d, %#x)", got.seq, got.typ, tc.seq, tc.typ)
			}
			if !bytes.Equal(got.payload, tc.payload) {
				t.Errorf("payload mismatch for seq %d: got %d bytes, want %d", tc.seq, len(got.payload), len(tc.payload))
			}
		}
	}
}

// TestFrameGoldenBytes pins the frame layout documented in wire.go: length,
// sequence ID, version byte, type byte, payload.
func TestFrameGoldenBytes(t *testing.T) {
	buf, err := appendFrame(nil, 0x0102030405060708, typeAcceptObject, []byte{0xCA, 0xFE})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 2, // payload length
		1, 2, 3, 4, 5, 6, 7, 8, // seq
		wireVersion,
		typeAcceptObject,
		0xCA, 0xFE,
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("frame bytes = %x, want %x", buf, want)
	}
}

func TestFrameRejectsBadInput(t *testing.T) {
	stream := func(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }
	// A clean close before a frame is io.EOF; one inside a header is not.
	if _, err := readFrameInto(stream(nil), nil); err != io.EOF {
		t.Errorf("readFrameInto(empty) = %v, want io.EOF", err)
	}
	if _, err := readFrameInto(stream([]byte{0, 0}), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("readFrameInto(truncated header) = %v, want io.ErrUnexpectedEOF", err)
	}
	// Unknown version is unrecoverable framing corruption.
	buf, err := appendFrame(nil, 1, typePing, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf...)
	bad[12] = 99
	if _, err := readFrameInto(stream(bad), nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("readFrameInto(bad version) = %v, want ErrBadFrame", err)
	}
	// Oversized payload on the write side is rejected before any I/O.
	if _, err := appendFrame(nil, 1, typePing, make([]byte, maxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("appendFrame(huge) = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameOversizeRecoverable checks the bugfix: an oversized inbound frame
// is skipped with its header intact, and the next frame on the same stream
// still parses — the connection need not die.
func TestFrameOversizeRecoverable(t *testing.T) {
	var stream bytes.Buffer
	// Hand-craft an oversized frame: huge declared length + that many bytes.
	huge := uint32(maxFrameSize + 3)
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], huge)
	binary.BigEndian.PutUint64(hdr[4:12], 42)
	hdr[12] = wireVersion
	hdr[13] = typeAcceptObject
	stream.Write(hdr[:])
	if _, err := io.CopyN(&stream, zeroReader{}, int64(huge)); err != nil {
		t.Fatal(err)
	}
	// Followed by a healthy frame.
	good, err := appendFrame(nil, 43, typePing, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	stream.Write(good)

	br := bufio.NewReader(&stream)
	f, err := readFrameInto(br, nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readFrameInto(oversized) = %v, want ErrFrameTooLarge", err)
	}
	if f.seq != 42 || f.typ != typeAcceptObject {
		t.Errorf("oversized header = (%d, %#x), want (42, accept_object)", f.seq, f.typ)
	}
	f, err = readFrameInto(br, nil)
	if err != nil {
		t.Fatalf("readFrameInto after oversized: %v", err)
	}
	if f.seq != 43 || string(f.payload) != "after" {
		t.Errorf("next frame = (%d, %q)", f.seq, f.payload)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestMemTransportCallAndFailures(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	b.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if msgType == TypeStatus {
			return nil, fmt.Errorf("handler says no")
		}
		return append([]byte("echo:"), payload...), nil
	})

	reply, err := a.Call("b", TypePing, []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "echo:hi" {
		t.Errorf("reply = %q", reply)
	}
	if net.Calls(TypePing) != 1 {
		t.Errorf("Calls(ping) = %d, want 1", net.Calls(TypePing))
	}

	if _, err := a.Call("b", TypeStatus, nil); !IsRemote(err) {
		t.Errorf("remote handler error = %v, want RemoteError", err)
	}
	if _, err := a.Call("b", "not.registered", nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("unregistered type = %v, want ErrBadFrame", err)
	}
	if _, err := a.Call("missing", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to unknown endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("b", true)
	if _, err := a.Call("b", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to down endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("b", false)
	if _, err := a.Call("b", TypePing, nil); err != nil {
		t.Errorf("call after SetDown(false): %v", err)
	}

	st := a.Stats()
	if st.FramesOut == 0 || st.BytesOut == 0 {
		t.Errorf("caller stats not counted: %+v", st)
	}
	if bst := b.Stats(); bst.FramesIn == 0 {
		t.Errorf("target stats not counted: %+v", bst)
	}
}

// TestMemFaultsLive exercises the fault state on the wall clock: a partition
// and its heal, and a down caller refused as well as a down target.
func TestMemFaultsLive(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) { return nil, nil })

	net.SetPartition("b", 1)
	if _, err := a.Call("b", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("cross-partition call = %v, want ErrUnreachable", err)
	}
	net.Heal()
	if _, err := a.Call("b", TypePing, nil); err != nil {
		t.Errorf("after Heal: %v", err)
	}
	net.SetDown("a", true)
	if _, err := a.Call("b", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call from a down endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("a", false)
	if _, err := a.Call("b", TypePing, nil); err != nil {
		t.Errorf("after SetDown(false): %v", err)
	}
}

// TestMemAsymBlockedDeadline checks that a blackholed direction on the wall
// clock surfaces as the caller's deadline expiring, not as a hard failure.
func TestMemAsymBlockedDeadline(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	var runs atomic.Int32
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) {
		runs.Add(1)
		return nil, nil
	})
	net.SetAsymGroup("b", 1)
	net.SetAsymBlocked(1, 0, true) // replies from b to a vanish

	const timeout = 20 * time.Millisecond
	start := time.Now()
	_, err := a.CallOpts("b", TypePing, nil, CallOpts{Timeout: timeout})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("blocked reply direction = %v, want ErrDeadline", err)
	}
	if waited := time.Since(start); waited < timeout {
		t.Errorf("deadline surfaced after %s, before the %s timeout", waited, timeout)
	}
	if runs.Load() != 1 {
		t.Errorf("handler ran %d times, want 1 (the request direction is open)", runs.Load())
	}
	if got := a.Stats().Timeouts; got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
	net.HealAsym()
	if _, err := a.CallOpts("b", TypePing, nil, CallOpts{Timeout: timeout}); err != nil {
		t.Errorf("after HealAsym: %v", err)
	}
}

// TestMemLossPastDeadline checks that a lost message whose drop timeout
// overruns the call's deadline surfaces at the deadline as ErrDeadline, as a
// real caller's timer would, not as a loss after the drop timeout.
func TestMemLossPastDeadline(t *testing.T) {
	net := NewMemNetwork()
	m := link.Model{Loss: 0.99, DropTimeout: time.Minute}
	if err := net.SetLink(m, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	a := net.Endpoint("a")
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) { return nil, nil })
	done := make(chan error, 1)
	go func() {
		_, err := a.CallOpts("b", TypePing, nil, CallOpts{Timeout: 20 * time.Millisecond})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("lost request = %v, want ErrDeadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call waited out the drop timeout past its 20ms deadline")
	}
}

// TestMemLateDuplicateDroppedWhenClosed checks Reorder on the wall clock: a
// late duplicate reaches an open endpoint a second time, and is dropped by an
// endpoint closed before it arrived.
func TestMemLateDuplicateDroppedWhenClosed(t *testing.T) {
	net := NewMemNetwork()
	m := link.Model{DropTimeout: 10 * time.Millisecond, Reorder: 0.99}
	if err := net.SetLink(m, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	a := net.Endpoint("a")
	var closedRuns, openRuns atomic.Int32
	closed := net.Endpoint("closed")
	closed.SetHandler(func(string, []byte) ([]byte, error) {
		closedRuns.Add(1)
		return nil, nil
	})
	net.Endpoint("open").SetHandler(func(string, []byte) ([]byte, error) {
		openRuns.Add(1)
		return nil, nil
	})

	if _, err := a.Call("closed", TypePing, nil); err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if _, err := a.Call("open", TypePing, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for openRuns.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if openRuns.Load() != 2 {
		t.Fatalf("open endpoint ran its handler %d times, want 2 (the late duplicate)", openRuns.Load())
	}
	time.Sleep(20 * time.Millisecond)
	if closedRuns.Load() != 1 {
		t.Errorf("closed endpoint ran its handler %d times, want 1", closedRuns.Load())
	}
}

// TestMemFaultsConcurrent drives the link model and the fault state from
// several goroutines at once: concurrent callers share the fabric's PRNG,
// latency histograms and counters while another goroutine flips faults.
func TestMemFaultsConcurrent(t *testing.T) {
	net := NewMemNetwork()
	m := link.Model{Jitter: time.Microsecond, Loss: 0.1, DropTimeout: time.Microsecond, Dup: 0.1, Reorder: 0.1}
	if err := net.SetLink(m, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) {
		runs.Add(1)
		return nil, nil
	})
	const callers, calls = 4, 200
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			net.SetSlow("b", float64(1+i%2))
			net.SetPartition("b", i%2)
			net.SetDown("b", i%3 == 0)
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ep := net.Endpoint(fmt.Sprintf("a%d", c))
			for i := 0; i < calls; i++ {
				_, err := ep.CallOpts("b", TypePing, []byte("x"), CallOpts{Timeout: time.Second})
				if err != nil && !errors.Is(err, ErrUnreachable) {
					t.Errorf("call: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-flipped
	if got := net.Calls(TypePing); got != callers*calls {
		t.Errorf("Calls(ping) = %d, want %d", got, callers*calls)
	}
	if h := net.Latency(TypePing); h == nil || h.Summary().Count == 0 || runs.Load() < int64(h.Summary().Count) {
		t.Errorf("latency histogram %v inconsistent with %d handler runs", h, runs.Load())
	}
}

func TestTCPTransportCall(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		switch msgType {
		case TypeStatus:
			return nil, fmt.Errorf("nope")
		default:
			return append([]byte(msgType+":"), payload...), nil
		}
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	reply, err := cli.Call(srv.Addr(), TypePing, []byte("over tcp"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != TypePing+":over tcp" {
		t.Errorf("reply = %q", reply)
	}

	// An application error must not poison the shared connection.
	if _, err := cli.Call(srv.Addr(), TypeStatus, nil); !IsRemote(err) {
		t.Errorf("remote error = %v, want RemoteError", err)
	}
	if _, err := cli.Call(srv.Addr(), TypePing, nil); err != nil {
		t.Errorf("call after remote error: %v", err)
	}

	// Concurrent callers share the multiplexed connection without corrupting
	// or cross-wiring frames.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			reply, err := cli.Call(srv.Addr(), TypePing, msg)
			if err != nil {
				errs <- err
				return
			}
			if string(reply) != TypePing+":"+string(msg) {
				errs <- fmt.Errorf("reply %q for %q", reply, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := srv.numServing(); got != 1 {
		t.Errorf("server connections = %d, want 1 (multiplexed)", got)
	}
	if st := cli.Stats(); st.Reconnects != 0 {
		t.Errorf("reconnects = %d, want 0", st.Reconnects)
	}

	if _, err := cli.Call("127.0.0.1:1", TypePing, nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("dial refused = %v, want ErrUnreachable", err)
	}
}

// TestTCPPipelining is the acceptance test for the multiplexed transport:
// 32+ concurrent Calls complete over a single TCP connection with replies
// arriving out of order. The handler holds every early request hostage until
// the last request of the wave has been received — impossible to satisfy
// with sequential request/reply exchanges on one socket, and proof that the
// demux reader matches replies by sequence ID rather than by arrival order.
func TestTCPPipelining(t *testing.T) {
	const calls = 48

	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var (
		mu      sync.Mutex
		arrived int
		release = make(chan struct{})
	)
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		mu.Lock()
		arrived++
		if arrived == calls {
			close(release)
		}
		mu.Unlock()
		// Every request blocks until the whole wave is on the server: replies
		// can only be produced once all requests were accepted concurrently.
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("wave never completed")
		}
		return append([]byte("r:"), payload...), nil
	})

	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("c%02d", i))
			reply, err := cli.Call(srv.Addr(), TypePing, msg)
			if err != nil {
				errs <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if string(reply) != "r:"+string(msg) {
				errs <- fmt.Errorf("call %d got %q", i, reply)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := srv.numServing(); got != 1 {
		t.Errorf("server connections = %d, want exactly 1 for %d concurrent calls", got, calls)
	}
	st := cli.Stats()
	if st.Reconnects != 0 {
		t.Errorf("reconnects = %d, want 0", st.Reconnects)
	}
	if st.FramesOut < calls {
		t.Errorf("frames out = %d, want >= %d", st.FramesOut, calls)
	}
}

// TestTCPOversizedFrameKeepsConnection checks the server half of the
// oversize bugfix end to end: a hand-crafted oversized frame gets a framed
// error reply (same seq) and the connection keeps serving pipelined traffic.
func TestTCPOversizedFrameKeepsConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		return []byte("pong"), nil
	})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Oversized frame: declared length over the limit, then the payload.
	huge := uint32(maxFrameSize + 1)
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], huge)
	binary.BigEndian.PutUint64(hdr[4:12], 99)
	hdr[12] = wireVersion
	hdr[13] = typePing
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(conn, zeroReader{}, int64(huge)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	f, err := readFrameInto(br, nil)
	if err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	if f.seq != 99 || f.typ != typeReplyErr {
		t.Fatalf("reply = (%d, %#x), want (99, typeReplyErr)", f.seq, f.typ)
	}

	// The connection is still alive: a healthy frame gets a healthy reply.
	good, err := appendFrame(nil, 100, typePing, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(good); err != nil {
		t.Fatal(err)
	}
	f, err = readFrameInto(br, nil)
	if err != nil {
		t.Fatalf("reading reply after oversized frame: %v", err)
	}
	if f.seq != 100 || f.typ != typeReplyOK || string(f.payload) != "pong" {
		t.Errorf("reply = (%d, %#x, %q)", f.seq, f.typ, f.payload)
	}
	if st := srv.Stats(); st.OversizedDrops != 1 {
		t.Errorf("oversized drops = %d, want 1", st.OversizedDrops)
	}
}

// TestCrossTransportByteIdentity proves the in-memory and TCP transports put
// the same bytes on the wire: the handler on each transport records the raw
// payload it received for identical requests (including a batch frame and a
// match push, one-way on TCP), and the recorded bytes must match exactly.
// Framing itself is shared (appendFrame) and pinned by TestFrameGoldenBytes.
func TestCrossTransportByteIdentity(t *testing.T) {
	batch := core.AcceptBatchMsg{Objects: []core.AcceptObjectMsg{
		{KeyValue: 0b1011, KeyBits: 16, Depth: 3, Kind: core.ObjectData, Payload: []byte("p0")},
		{KeyValue: 0x7FFF, KeyBits: 16, Depth: 9, Kind: core.ObjectQuery, Payload: []byte("p1")},
	}}
	requests := []struct {
		msgType string
		payload []byte
	}{
		{TypePing, nil},
		{TypeAcceptObject, (&core.AcceptObjectMsg{KeyValue: 5, KeyBits: 8, Depth: 2, Kind: core.ObjectData}).MarshalWire(nil)},
		{TypeAcceptBatch, batch.MarshalWire(nil)},
		{TypeFindSuccessor, (&findSuccessorMsg{ID: 123456}).MarshalWire(nil)},
		{TypeReplicateKeyGroup, (&replicateMsg{Origin: "n1", Incarnation: 4, Base: 1, Version: 2, Groups: []replicaGroupRec{
			{GroupValue: 1, GroupBits: 2, Epoch: 1, Queries: [][]byte{[]byte("q")}}}}).MarshalWire(nil)},
		// Last: on TCP the call returns before the handler runs.
		{TypeMatch, (&matchMsg{QueryID: "q-1", KeyValue: 9, KeyBits: 8, Attrs: wirecodec.AppendAttrs(nil, map[string]float64{"speed": 61}), Payload: []byte("m")}).MarshalWire(nil)},
	}

	type recorder struct {
		mu  sync.Mutex
		got [][]byte
	}
	record := func() (Handler, *recorder) {
		r := &recorder{}
		return func(msgType string, payload []byte) ([]byte, error) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.got = append(r.got, append([]byte(nil), payload...))
			return []byte(msgType), nil
		}, r
	}

	memNet := NewMemNetwork()
	memCli := memNet.Endpoint("cli")
	memSrv := memNet.Endpoint("srv")
	memHandler, memGot := record()
	memSrv.SetHandler(memHandler)

	tcpSrv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()
	tcpHandler, tcpGot := record()
	tcpSrv.SetHandler(tcpHandler)
	tcpCli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcpCli.Close()

	for _, req := range requests {
		if _, err := memCli.Call("srv", req.msgType, req.payload); err != nil {
			t.Fatalf("mem call %s: %v", req.msgType, err)
		}
		if _, err := tcpCli.Call(tcpSrv.Addr(), req.msgType, req.payload); err != nil {
			t.Fatalf("tcp call %s: %v", req.msgType, err)
		}
	}
	// Wait for the TCP handler to see the one-way match push.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		tcpGot.mu.Lock()
		n := len(tcpGot.got)
		tcpGot.mu.Unlock()
		if n == len(requests) || time.Now().After(deadline) {
			break
		}
	}
	memGot.mu.Lock()
	defer memGot.mu.Unlock()
	tcpGot.mu.Lock()
	defer tcpGot.mu.Unlock()
	if len(memGot.got) != len(requests) || len(tcpGot.got) != len(requests) {
		t.Fatalf("recorded %d mem / %d tcp payloads, want %d", len(memGot.got), len(tcpGot.got), len(requests))
	}
	for i := range requests {
		if !bytes.Equal(memGot.got[i], tcpGot.got[i]) {
			t.Errorf("%s: mem payload %x != tcp payload %x", requests[i].msgType, memGot.got[i], tcpGot.got[i])
		}
	}
}

func TestTCPTransportClose(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHandler(func(string, []byte) ([]byte, error) { return []byte("ok"), nil })
	cli, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(srv.Addr(), TypePing, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Errorf("client Close: %v", err)
	}
	if _, err := cli.Call(srv.Addr(), TypePing, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Close = %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("server Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// testRepliesOwnedByCaller holds the reply-ownership rule of Transport.Call:
// every reply is a pooled buffer the caller owns. Replies a caller keeps must
// stay intact while the replies of other, concurrent calls are recycled and
// their buffers handed out again.
func testRepliesOwnedByCaller(t *testing.T, srv, cli Transport) {
	srv.SetHandler(func(_ string, payload []byte) ([]byte, error) {
		return append(append(wirecodec.GetBuf(), "r:"...), payload...), nil
	})
	const workers, calls = 4, 200
	var wg sync.WaitGroup
	kept := make([][][]byte, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				req := fmt.Sprintf("w%d-%d", w, i)
				reply, err := cli.Call(srv.Addr(), TypePing, []byte(req))
				if err != nil {
					t.Error(err)
					return
				}
				if string(reply) != "r:"+req {
					t.Errorf("reply %q, want r:%s", reply, req)
				}
				if i%2 == 0 {
					kept[w] = append(kept[w], reply)
				} else {
					wirecodec.PutBuf(reply)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range kept {
		for j, reply := range kept[w] {
			if want := fmt.Sprintf("r:w%d-%d", w, 2*j); string(reply) != want {
				t.Errorf("kept reply %d of worker %d reads %q, want %q", j, w, reply, want)
			}
		}
	}
}

// TestMemRepliesOwnedByCaller runs testRepliesOwnedByCaller on the in-memory
// fabric, which copies each reply out of its pooled frame into a buffer of
// its own.
func TestMemRepliesOwnedByCaller(t *testing.T) {
	netw := NewMemNetwork()
	testRepliesOwnedByCaller(t, netw.Endpoint("srv"), netw.Endpoint("cli"))
}
