package overlay

import (
	"fmt"

	"clash/internal/bitkey"
	"clash/internal/core"
	"clash/internal/wirecodec"
)

// BatchItem is one data packet queued for a batched publish.
type BatchItem struct {
	Key   bitkey.Key
	Attrs map[string]float64
}

// PublishBatch delivers many data packets with as few frames as possible:
// items whose (group → server) binding is cached are grouped per server and
// shipped in one TypeAcceptBatch frame each (one read-snapshot load per
// frame on the remote side); cache misses and items the server redirects
// fall back to the single-object depth-resolution path.
// results[i] describes items[i]; when errs[i] is non-nil it carries that
// item's failure and results[i] is the zero PublishResult. The call itself
// only fails on empty input validation — per-item failures never abort the
// rest of the batch.
func (c *Client) PublishBatch(items []BatchItem) (results []PublishResult, errs []error) {
	results = make([]PublishResult, len(items))
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
			sb = &serverBatch{idx: make([]int, 0, len(items)), groups: make([]bitkey.Group, 0, len(items))}
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
		// Direct calls rather than marshalMsg, which would box msg into
		// wireMsg per item.
		msg := dataMsg{Attrs: items[i].Attrs}
		data := msg.MarshalWire(wirecodec.GetBuf())
		results[i], errs[i] = c.deliver(items[i].Key, core.ObjectData, data)
		wirecodec.PutBuf(data)
	}
	return results, errs
}

// sendBatch ships one per-server TypeAcceptBatch frame and applies its
// replies; items the server did not accept are appended to slow.
func (c *Client) sendBatch(srv core.ServerID, idx []int, groups []bitkey.Group, items []BatchItem, results []PublishResult, errs []error, slow *[]int) {
	req := core.AcceptBatchMsg{Objects: make([]core.AcceptObjectMsg, len(idx))}
	payloadBufs := make([][]byte, len(idx))
	for j, i := range idx {
		msg := dataMsg{Attrs: items[i].Attrs}
		payloadBufs[j] = msg.MarshalWire(wirecodec.GetBuf())
		req.Objects[j] = core.AcceptObjectMsg{
			KeyValue: items[i].Key.Value,
			KeyBits:  items[i].Key.Bits,
			Depth:    groups[j].Depth(),
			Kind:     core.ObjectData,
			Payload:  payloadBufs[j],
			TraceID:  c.nextTraceID(),
		}
	}
	reply := core.AcceptBatchReplyMsg{Replies: make([]core.AcceptObjectReplyMsg, 0, len(idx))}
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
			results[i] = PublishResult{Server: string(srv), Group: res.Group, Probes: 1, Matches: rep.Matches}
		default:
			// INCORRECT_DEPTH: the group moved; re-resolve individually.
			c.router.Forget(groups[j])
			*slow = append(*slow, i)
		}
	}
}
