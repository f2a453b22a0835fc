package hub

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"clash/internal/overlay"
)

const (
	// busCapacity bounds the event ring: a scrape-era control plane keeps the
	// recent past for replay, not a durable log.
	busCapacity = 1024
	// subBuffer is each /events subscriber's channel depth; a subscriber that
	// falls further behind loses events (counted, never blocking the node).
	subBuffer = 256
	// sseHeartbeat keeps idle /events connections alive through proxies.
	sseHeartbeat = 15 * time.Second
	// sseWriteGrace is the per-write deadline on an /events connection: a
	// stuck client is disconnected instead of pinning the handler.
	sseWriteGrace = 10 * time.Second
)

// Bus is the hub's bounded event log: a fixed ring of the most recent
// protocol events with monotonic sequence numbers, plus live fan-out to
// /events subscribers. Publish never blocks — a saturated subscriber loses
// events (counted in Drops) rather than stalling the node's emit sites.
type Bus struct {
	mu    sync.Mutex
	ring  []overlay.Event
	next  int
	full  bool
	seq   uint64
	subs  map[chan overlay.Event]struct{}
	drops uint64
}

// NewBus creates an empty bus with the default ring capacity.
func NewBus() *Bus {
	return &Bus{
		ring: make([]overlay.Event, busCapacity),
		subs: make(map[chan overlay.Event]struct{}),
	}
}

// Publish stamps ev with the next sequence number, stores it in the ring and
// fans it out to every live subscriber without blocking.
func (b *Bus) Publish(ev overlay.Event) {
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	b.ring[b.next] = ev
	b.next++
	if b.next == len(b.ring) {
		b.next = 0
		b.full = true
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			b.drops++
		}
	}
	b.mu.Unlock()
}

// Replay returns the buffered events with Seq > since, oldest first.
func (b *Bus) Replay(since uint64) []overlay.Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.next
	if b.full {
		n = len(b.ring)
	}
	out := make([]overlay.Event, 0, n)
	start := 0
	if b.full {
		start = b.next
	}
	for i := 0; i < n; i++ {
		ev := b.ring[(start+i)%len(b.ring)]
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	return out
}

// Subscribe registers a live event channel. The caller must drain it and
// Unsubscribe when done.
func (b *Bus) Subscribe() chan overlay.Event {
	ch := make(chan overlay.Event, subBuffer)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return ch
}

// Unsubscribe removes a channel registered by Subscribe.
func (b *Bus) Unsubscribe(ch chan overlay.Event) {
	b.mu.Lock()
	delete(b.subs, ch)
	b.mu.Unlock()
}

// Drops returns how many events were lost on saturated subscriber channels.
func (b *Bus) Drops() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drops
}

// serveEvents streams the node's protocol events as server-sent events:
// `id:` carries the sequence number, `data:` the JSON event. `?since=N`
// replays the buffered events after sequence N before going live, so a
// reconnecting consumer resumes from its last `id` without a gap (the ring
// permitting). Heartbeat comments keep idle connections alive; each write
// carries its own deadline so a stuck client is disconnected instead of
// holding the handler, and the server's write timeout (if any) is overridden
// per write via the response controller.
func (h *Hub) serveEvents(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = v
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	rc := http.NewResponseController(w)

	// Subscribe before replaying so no event can fall between the two; the
	// overlap window is deduplicated by sequence number below.
	ch := h.bus.Subscribe()
	defer h.bus.Unsubscribe(ch)
	w.WriteHeader(http.StatusOK)

	write := func(ev overlay.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		_ = rc.SetWriteDeadline(time.Now().Add(sseWriteGrace))
		if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, data); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	last := since
	for _, ev := range h.bus.Replay(since) {
		if !write(ev) {
			return
		}
		last = ev.Seq
	}
	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if ev.Seq <= last {
				continue
			}
			if !write(ev) {
				return
			}
			last = ev.Seq
		case <-hb.C:
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteGrace))
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		}
	}
}
