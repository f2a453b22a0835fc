package main

import (
	"fmt"
	"runtime"
	"time"

	"clash/internal/core"
	"clash/internal/cq"
)

// perOp times fn over rounds×n calls and returns ns and allocations per
// call.
func perOp(rounds, n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	calls := float64(rounds * n)
	return float64(el.Nanoseconds()) / calls, float64(after.Mallocs-before.Mallocs) / calls
}

// replay feeds the timed phase's inputs straight into the core, cq and wire
// functions of the session's cluster, outside the overlay, so each layer's
// cost is measured alone: the client route-cache lookup, the owner's
// HandleAcceptObject, the owner's cq.Match, and the ACCEPT_OBJECT codec on
// the request and reply payloads the traced run captured.
func replay(s *session) (map[string]float64, error) {
	in := s.in
	type owned struct {
		server *core.Server
		engine *cq.Engine
		depth  int
	}
	owners := make([]owned, tableLen)
	events := make([]cq.Event, tableLen)
	for i, k := range in.keys {
		for _, n := range s.c.nodes {
			if g, ok := n.Server().ManagesKey(k); ok {
				owners[i] = owned{n.Server(), n.Engine(), g.Depth()}
				break
			}
		}
		if owners[i].server == nil {
			return nil, fmt.Errorf("replay: no node manages key %v", k)
		}
		events[i] = cq.Event{Key: k, Attrs: map[string]float64{"speed": in.speeds[i]}}
	}
	out := map[string]float64{}
	router := s.pubs[0].Router()
	out["core.route_ns"], out["core.route_allocs"] = perOp(4, tableLen, func(i int) {
		router.Route(in.keys[i])
	})
	var bad error
	out["core.accept_ns"], out["core.accept_allocs"] = perOp(4, tableLen, func(i int) {
		if _, err := owners[i].server.HandleAcceptObject(in.keys[i], owners[i].depth); err != nil {
			bad = err
		}
	})
	if bad != nil {
		return nil, fmt.Errorf("replay accept: %w", bad)
	}
	var matched int
	out["cq.match_ns"], out["cq.match_allocs"] = perOp(4, tableLen, func(i int) {
		matched += len(owners[i].engine.Match(events[i]))
	})
	if matched == 0 {
		return nil, fmt.Errorf("replay: cq.Match matched nothing")
	}

	s.c.tracer.mu.Lock()
	reqs, replies := s.c.tracer.reqs, s.c.tracer.replies
	s.c.tracer.mu.Unlock()
	if len(reqs) == 0 {
		return nil, fmt.Errorf("replay: no ACCEPT_OBJECT payloads captured")
	}
	buf := make([]byte, 0, 4096)
	reqMsgs := make([]core.AcceptObjectMsg, len(reqs))
	replyMsgs := make([]core.AcceptObjectReplyMsg, len(replies))
	out["wire.accept_object.unmarshal_ns"], out["wire.accept_object.unmarshal_allocs"] = perOp(64, len(reqs), func(i int) {
		if err := reqMsgs[i].UnmarshalWire(reqs[i]); err != nil {
			bad = err
		}
	})
	out["wire.accept_object.marshal_ns"], out["wire.accept_object.marshal_allocs"] = perOp(64, len(reqs), func(i int) {
		buf = reqMsgs[i].MarshalWire(buf[:0])
	})
	out["wire.accept_reply.unmarshal_ns"], out["wire.accept_reply.unmarshal_allocs"] = perOp(64, len(replies), func(i int) {
		if err := replyMsgs[i].UnmarshalWire(replies[i]); err != nil {
			bad = err
		}
	})
	out["wire.accept_reply.marshal_ns"], out["wire.accept_reply.marshal_allocs"] = perOp(64, len(replies), func(i int) {
		buf = replyMsgs[i].MarshalWire(buf[:0])
	})
	if bad != nil {
		return nil, fmt.Errorf("replay wire: %w", bad)
	}
	return out, nil
}
