package sim

import (
	"clash/internal/metrics"
	"clash/internal/overlay"
)

// SpanReport aggregates the hop spans a traced run's sampled publishes
// emitted across every simulated node. It is JSON-stable: all fields derive
// from the deterministic event order and the virtual clock, never from wall
// time, so two runs with the same scenario and seed marshal identically.
type SpanReport struct {
	// Traces is the number of distinct sampled trace IDs that recorded at
	// least one span.
	Traces int `json:"traces"`
	// Complete counts the traces whose spans form one connected tree rooted
	// at a single ingress span (the span-completeness invariant).
	Complete int `json:"complete"`
	// Spans is the total number of hop spans recorded.
	Spans int `json:"spans"`
	// HopCounts breaks the spans down by hop kind.
	HopCounts map[string]int `json:"hop_counts"`
	// HopNetVirtualMs summarises the one-way virtual link latency (in
	// milliseconds) of the message type that carries each networked hop kind
	// over the whole run. In-node hops (cq-match) have no entry.
	HopNetVirtualMs map[string]metrics.Summary `json:"hop_net_virtual_ms,omitempty"`
	// Incomplete lists up to eight trace IDs whose span trees failed the
	// completeness check, for debugging.
	Incomplete []uint64 `json:"incomplete,omitempty"`
}

// hopCarrier maps each networked hop kind to the wire message type whose
// link latency delivers it; in-node hop kinds are absent.
var hopCarrier = map[string]string{
	overlay.HopIngress:      overlay.TypeAcceptObject,
	overlay.HopRouteForward: overlay.TypeAcceptObject,
	overlay.HopResolve:      overlay.TypeAcceptObject,
	overlay.HopReplicaPush:  overlay.TypeReplicateKeyGroup,
	overlay.HopDeliver:      overlay.TypeMatch,
}

// buildSpanReport groups the collected spans by trace, checks each trace's
// tree for completeness and attaches the per-hop virtual-latency summaries.
// It returns nil when no spans were recorded (tracing disabled).
func buildSpanReport(spans []overlay.Span, net *overlay.MemNetwork) *SpanReport {
	if len(spans) == 0 {
		return nil
	}
	rep := &SpanReport{Spans: len(spans), HopCounts: make(map[string]int)}
	byTrace := make(map[uint64][]overlay.Span)
	var order []uint64 // first-seen order: deterministic, unlike map iteration
	for _, sp := range spans {
		rep.HopCounts[sp.Kind]++
		if _, ok := byTrace[sp.TraceID]; !ok {
			order = append(order, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	rep.Traces = len(byTrace)
	for _, id := range order {
		if spanTreeComplete(byTrace[id]) {
			rep.Complete++
		} else if len(rep.Incomplete) < 8 {
			rep.Incomplete = append(rep.Incomplete, id)
		}
	}
	for kind := range hopCarrier {
		if rep.HopCounts[kind] == 0 {
			continue
		}
		if h := net.Latency(hopCarrier[kind]); h != nil {
			if rep.HopNetVirtualMs == nil {
				rep.HopNetVirtualMs = make(map[string]metrics.Summary)
			}
			rep.HopNetVirtualMs[kind] = msSummary(h.Summary())
		}
	}
	return rep
}

// spanTreeComplete reports whether one trace's spans form a single connected
// tree rooted at the ingress hop: exactly one root span (Parent == 0, which
// the protocol only emits at the first server contacted) and every other
// span's parent present among the trace's own span IDs.
func spanTreeComplete(spans []overlay.Span) bool {
	ids := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range spans {
		if sp.Parent == 0 {
			if sp.Kind != overlay.HopIngress {
				return false
			}
			roots++
		} else if !ids[sp.Parent] {
			return false
		}
	}
	return roots == 1
}
