package overlay

import (
	"fmt"
	"sync"
	"time"

	"clash/internal/bitkey"
	"clash/internal/core"
	"clash/internal/wirecodec"
)

// BatchItem is one data packet queued for a batched publish.
type BatchItem struct {
	Key     bitkey.Key
	Attrs   map[string]float64
	Payload []byte
}

// PublishBatch delivers many data packets with as few frames as possible:
// items whose (group → server) binding is cached are grouped per server and
// shipped in one TypeAcceptBatch frame each (one read-snapshot load per
// frame on the remote side); cache misses and items the server redirects
// fall back to the single-object depth-resolution path.
// results[i] describes items[i]; a nil entry means errs[i] carries that
// item's failure. The call itself only fails on empty input validation —
// per-item failures never abort the rest of the batch.
func (c *Client) PublishBatch(items []BatchItem) (results []*PublishResult, errs []error) {
	results = make([]*PublishResult, len(items))
	errs = make([]error, len(items))

	// Partition: per-server vectors of item indexes for cache hits, the rest
	// to the slow path.
	type serverBatch struct {
		idx    []int
		groups []bitkey.Group
	}
	perServer := make(map[core.ServerID]*serverBatch)
	var slow []int
	for i, it := range items {
		if it.Key.Bits != c.keyBits {
			errs[i] = fmt.Errorf("%w: key %d bits, want %d", core.ErrBadKey, it.Key.Bits, c.keyBits)
			continue
		}
		g, srv, ok := c.router.Route(it.Key)
		if !ok {
			slow = append(slow, i)
			continue
		}
		sb := perServer[srv]
		if sb == nil {
			sb = &serverBatch{}
			perServer[srv] = sb
		}
		sb.idx = append(sb.idx, i)
		sb.groups = append(sb.groups, g)
	}

	for srv, sb := range perServer {
		c.sendBatch(srv, sb.idx, sb.groups, items, results, errs, &slow)
	}

	// Slow path: individual delivery with full depth resolution (which also
	// re-warms the cache for the next batch).
	for _, i := range slow {
		msg := dataMsg{Attrs: items[i].Attrs, Payload: items[i].Payload}
		data := marshalMsg(&msg)
		results[i], errs[i] = c.deliver(items[i].Key, core.ObjectData, data)
		wirecodec.PutBuf(data)
	}
	return results, errs
}

// sendBatch ships one per-server TypeAcceptBatch frame and applies its
// replies; items the server did not accept are appended to slow.
func (c *Client) sendBatch(srv core.ServerID, idx []int, groups []bitkey.Group, items []BatchItem, results []*PublishResult, errs []error, slow *[]int) {
	req := core.AcceptBatchMsg{Objects: make([]core.AcceptObjectMsg, len(idx))}
	payloadBufs := make([][]byte, len(idx))
	for j, i := range idx {
		msg := dataMsg{Attrs: items[i].Attrs, Payload: items[i].Payload}
		payloadBufs[j] = marshalMsg(&msg)
		req.Objects[j] = core.AcceptObjectMsg{
			KeyValue: items[i].Key.Value,
			KeyBits:  items[i].Key.Bits,
			Depth:    groups[j].Depth(),
			Kind:     core.ObjectData,
			Payload:  payloadBufs[j],
			TraceID:  c.nextTraceID(),
		}
	}
	var reply core.AcceptBatchReplyMsg
	err := call(c.tr, string(srv), TypeAcceptBatch, &req, &reply)
	for _, buf := range payloadBufs {
		wirecodec.PutBuf(buf)
	}
	if err != nil {
		if !IsRemote(err) {
			// The server is gone: evict its bindings and resolve each item
			// from scratch.
			c.router.ForgetServer(srv)
		}
		*slow = append(*slow, idx...)
		return
	}
	if len(reply.Replies) != len(idx) {
		for _, i := range idx {
			errs[i] = fmt.Errorf("overlay: batch reply carries %d entries for %d objects", len(reply.Replies), len(idx))
		}
		return
	}
	for j, i := range idx {
		rep := &reply.Replies[j]
		if rep.Status == 0 {
			errs[i] = fmt.Errorf("overlay: remote error: %s", rep.Error)
			continue
		}
		res, derr := decodeAccept(rep)
		if derr != nil {
			errs[i] = derr
			continue
		}
		switch res.Status {
		case core.StatusOK, core.StatusOKCorrected:
			c.router.Learn(res.Group, srv)
			c.lastDepth.Store(int64(res.CorrectDepth))
			results[i] = &PublishResult{Server: string(srv), Group: res.Group, Probes: 1, Matches: rep.Matches}
		default:
			// INCORRECT_DEPTH: the group moved; re-resolve individually.
			c.router.Forget(groups[j])
			*slow = append(*slow, i)
		}
	}
}

// Batcher accumulates published packets and flushes them as batched frames
// when the buffer reaches size packets or interval elapses, whichever comes
// first. Publish is safe for concurrent use; a size-triggered flush runs on
// the publishing goroutine (providing natural backpressure), the interval
// flush on a background goroutine.
type Batcher struct {
	c        *Client
	size     int
	onResult func(item BatchItem, res *PublishResult, err error)

	mu     sync.Mutex
	buf    []BatchItem
	closed bool

	stop chan struct{}
	done chan struct{}
}

// NewBatcher creates a batcher flushing at size packets or every interval.
// onResult (optional) is invoked once per published item with its outcome.
func (c *Client) NewBatcher(size int, interval time.Duration, onResult func(BatchItem, *PublishResult, error)) *Batcher {
	if size < 1 {
		size = 1
	}
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	b := &Batcher{
		c:        c,
		size:     size,
		onResult: onResult,
		buf:      make([]BatchItem, 0, size),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.flushLoop(interval)
	return b
}

// Publish queues one data packet. When the queue reaches the flush size, the
// whole batch is published synchronously on this goroutine.
func (b *Batcher) Publish(key bitkey.Key, attrs map[string]float64, payload []byte) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.buf = append(b.buf, BatchItem{Key: key, Attrs: attrs, Payload: payload})
	var batch []BatchItem
	if len(b.buf) >= b.size {
		batch = b.buf
		b.buf = make([]BatchItem, 0, b.size)
	}
	b.mu.Unlock()
	if batch != nil {
		b.publish(batch)
	}
	return nil
}

// Flush publishes everything currently queued.
func (b *Batcher) Flush() {
	b.mu.Lock()
	batch := b.buf
	if len(batch) > 0 {
		b.buf = make([]BatchItem, 0, b.size)
	}
	b.mu.Unlock()
	if len(batch) > 0 {
		b.publish(batch)
	}
}

// Close stops the interval flusher and publishes the remaining queue.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
	b.Flush()
	return nil
}

func (b *Batcher) flushLoop(interval time.Duration) {
	defer close(b.done)
	t := b.c.clk.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C():
			b.Flush()
		case <-b.stop:
			return
		}
	}
}

func (b *Batcher) publish(batch []BatchItem) {
	results, errs := b.c.PublishBatch(batch)
	if b.onResult == nil {
		return
	}
	for i := range batch {
		b.onResult(batch[i], results[i], errs[i])
	}
}
