package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"clash/internal/overlay"
	"clash/internal/sim/link"
)

// testNet builds the simulator's fabric: an overlay.MemNetwork on the
// engine's virtual clock, drawing its link fates from the engine's PRNG.
func testNet(t *testing.T, m link.Model) (*Engine, *overlay.MemNetwork) {
	t.Helper()
	eng := NewEngine(1)
	net := overlay.NewMemNetwork()
	net.SetClock(eng)
	if err := net.SetLink(m, eng.Rand()); err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func TestNetCallAndErrors(t *testing.T) {
	_, net := testNet(t, link.Model{})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	b.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if msgType == overlay.TypeStatus {
			return nil, fmt.Errorf("nope")
		}
		return append([]byte("echo:"), payload...), nil
	})

	reply, err := a.Call("b", overlay.TypePing, []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "echo:hi" {
		t.Errorf("reply = %q", reply)
	}
	if net.Calls(overlay.TypePing) != 1 {
		t.Errorf("Calls(ping) = %d", net.Calls(overlay.TypePing))
	}
	if _, err := a.Call("b", overlay.TypeStatus, nil); !overlay.IsRemote(err) {
		t.Errorf("handler error = %v, want RemoteError", err)
	}
	if _, err := a.Call("missing", overlay.TypePing, nil); !errors.Is(err, overlay.ErrUnreachable) {
		t.Errorf("unknown endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("b", true)
	if _, err := a.Call("b", overlay.TypePing, nil); !errors.Is(err, overlay.ErrUnreachable) {
		t.Errorf("down endpoint = %v, want ErrUnreachable", err)
	}
	net.SetDown("b", false)
	net.SetDown("a", true)
	if _, err := a.Call("b", overlay.TypePing, nil); !errors.Is(err, overlay.ErrUnreachable) {
		t.Errorf("down caller = %v, want ErrUnreachable", err)
	}
	net.SetDown("a", false)
	if _, err := a.Call("b", overlay.TypePing, nil); err != nil {
		t.Errorf("after SetDown(false): %v", err)
	}

	st := a.Stats()
	if st.FramesOut == 0 || st.BytesOut == 0 || st.FramesIn == 0 {
		t.Errorf("caller stats not counted: %+v", st)
	}
}

func TestNetPartition(t *testing.T) {
	_, net := testNet(t, link.Model{})
	a := net.Endpoint("a")
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) { return nil, nil })

	net.SetPartition("b", 1)
	if _, err := a.Call("b", overlay.TypePing, nil); !errors.Is(err, overlay.ErrUnreachable) {
		t.Errorf("cross-partition call = %v, want ErrUnreachable", err)
	}
	net.SetPartition("a", 1)
	if _, err := a.Call("b", overlay.TypePing, nil); err != nil {
		t.Errorf("same-partition call: %v", err)
	}
	net.Heal()
	if _, err := a.Call("b", overlay.TypePing, nil); err != nil {
		t.Errorf("after Heal: %v", err)
	}
}

func TestNetLatencyRecordedAndLoss(t *testing.T) {
	m := link.Model{BaseLatency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.5}
	eng, net := testNet(t, m)
	a := net.Endpoint("a")
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) { return nil, nil })

	ok, lost := 0, 0
	for i := 0; i < 200; i++ {
		if _, err := a.Call("b", overlay.TypePing, nil); err != nil {
			if !errors.Is(err, overlay.ErrUnreachable) {
				t.Fatalf("loss error = %v", err)
			}
			lost++
		} else {
			ok++
		}
	}
	// Loss 0.5 per direction: roughly 3/4 of calls fail.
	if ok == 0 || lost == 0 {
		t.Fatalf("ok=%d lost=%d, want a mix", ok, lost)
	}
	h := net.Latency(overlay.TypePing)
	if h == nil || h.Summary().Count == 0 {
		t.Fatal("no latency recorded")
	}
	s := h.Summary()
	if s.Min < 10000 || s.Max > 15000 {
		t.Errorf("one-way latency range [%.0f, %.0f]µs, want within [10ms, 15ms)", s.Min, s.Max)
	}
	if eng.VirtualNow() != 0 {
		t.Errorf("calls advanced virtual time to %s; link time must be charged, not slept", eng.VirtualNow())
	}
}

// TestNetPayloadIsolation checks that payloads cross the fabric by value, as
// on a socket: the handler reads its request from the fabric's own frame,
// not the caller's buffer, and the caller's reply is its own copy, not the
// buffer the handler handed over (which the fabric recycles).
func TestNetPayloadIsolation(t *testing.T) {
	_, net := testNet(t, link.Model{})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	buf := []byte("payload")
	var sawCallerBuf bool
	var handed []byte
	b.SetHandler(func(_ string, payload []byte) ([]byte, error) {
		sawCallerBuf = &payload[0] == &buf[0]
		if string(payload) != "payload" {
			t.Errorf("handler payload = %q", payload)
		}
		handed = []byte("reply")
		return handed, nil
	})
	got, err := a.Call("b", overlay.TypePing, buf)
	if err != nil {
		t.Fatal(err)
	}
	if sawCallerBuf {
		t.Error("handler was given the caller's buffer")
	}
	if string(got) != "reply" || &got[0] == &handed[0] {
		t.Errorf("caller reply %q aliases the handler's buffer or differs", got)
	}
}

// TestNetVirtualTimeCharged checks the simulator's side of the fabric: a
// call's link time goes to TraceCall instead of the clock, an asymmetrically
// blocked direction costs the whole deadline, and a late duplicate waits on
// the event queue.
func TestNetVirtualTimeCharged(t *testing.T) {
	m := link.Model{BaseLatency: 10 * time.Millisecond, DropTimeout: 40 * time.Millisecond, Reorder: 0.99}
	eng, net := testNet(t, m)
	a := net.Endpoint("a")
	runs := 0
	net.Endpoint("b").SetHandler(func(string, []byte) ([]byte, error) {
		runs++
		return nil, nil
	})

	var rtt time.Duration
	cost := net.TraceCall(func() {
		if _, err := a.CallOpts("b", overlay.TypePing, nil, overlay.CallOpts{RTT: &rtt}); err != nil {
			t.Fatal(err)
		}
	})
	if cost != 20*time.Millisecond || rtt != cost {
		t.Errorf("cost %s, RTT %s; want the 20ms modeled round trip for both", cost, rtt)
	}
	if runs != 1 {
		t.Fatalf("handler ran %d times before the late duplicate was due, want 1", runs)
	}
	eng.RunUntil(50 * time.Millisecond)
	if runs != 2 {
		t.Errorf("handler ran %d times after the late duplicate was due, want 2", runs)
	}

	net.SetAsymGroup("b", 1)
	net.SetAsymBlocked(0, 1, true)
	cost = net.TraceCall(func() {
		_, err := a.CallOpts("b", overlay.TypePing, nil, overlay.CallOpts{Timeout: time.Second})
		if !errors.Is(err, overlay.ErrDeadline) {
			t.Errorf("blocked direction = %v, want ErrDeadline", err)
		}
	})
	if cost != time.Second {
		t.Errorf("blocked call cost %s, want the 1s deadline", cost)
	}
	if got := a.Stats().Timeouts; got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
}
