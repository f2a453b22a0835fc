package hub

import (
	"sync"

	"clash/internal/metrics"
	"clash/internal/overlay"
)

// tracesCapacity bounds the sample ring served by /traces/sample.
const tracesCapacity = 256

// spansCapacity bounds the hop-span ring served by /traces/spans. Spans are
// smaller and more numerous than trace records (one sampled publish yields a
// handful across its path), so the ring is deeper.
const spansCapacity = 2048

// Traces stores sampled request traces: a bounded ring of the most recent
// TraceRecords plus per-stage latency histograms. The histograms are the
// registry's clash_trace_stage_seconds children: each stage observation is
// recorded once, there, and /traces/sample and StageSummaries read the same
// children /metrics renders. Traces implements overlay.Observer (events are
// ignored) so it can also be installed standalone — clashload attaches one
// directly to its in-process nodes to report a per-stage latency summary
// without running a hub.
type Traces struct {
	stages metrics.HistogramVec
	mu     sync.Mutex
	ring   []overlay.TraceRecord
	next   int
	full   bool
	count  uint64

	// Hop spans live in their own ring under their own lock: span traffic
	// (several per sampled publish, pushed from async delivery goroutines)
	// must not contend with trace-record reads.
	spanMu    sync.Mutex
	spanRing  []overlay.Span
	spanNext  int
	spanFull  bool
	spanCount uint64
}

// NewTraces creates a trace store whose stage histograms are the
// clash_trace_stage_seconds family of reg.
func NewTraces(reg *metrics.Registry) *Traces {
	return &Traces{
		stages: reg.HistogramVec("clash_trace_stage_seconds",
			"Per-stage latency of sampled publish requests.", "stage"),
		ring:     make([]overlay.TraceRecord, tracesCapacity),
		spanRing: make([]overlay.Span, spansCapacity),
	}
}

// OnEvent implements overlay.Observer; Traces ignores protocol events.
func (t *Traces) OnEvent(overlay.Event) {}

// OnTrace stores one completed trace record.
func (t *Traces) OnTrace(rec overlay.TraceRecord) {
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.count++
	t.mu.Unlock()
}

// OnTraceStage records one stage observation (microseconds).
func (t *Traces) OnTraceStage(stage string, micros int64) {
	t.stages.With(stage).Record(micros)
}

// OnSpan stores one hop span of a sampled publish's cross-node path.
func (t *Traces) OnSpan(sp overlay.Span) {
	t.spanMu.Lock()
	t.spanRing[t.spanNext] = sp
	t.spanNext++
	if t.spanNext == len(t.spanRing) {
		t.spanNext = 0
		t.spanFull = true
	}
	t.spanCount++
	t.spanMu.Unlock()
}

// SpanSample is the /traces/spans document: this node's retained hop spans,
// optionally filtered to one trace.
type SpanSample struct {
	// Count is the total number of spans observed (not just retained).
	Count uint64 `json:"count"`
	// TraceID echoes the filter (0: unfiltered).
	TraceID uint64         `json:"traceId,omitempty"`
	Spans   []overlay.Span `json:"spans"`
}

// Spans snapshots the span ring. With a non-zero traceID only that trace's
// spans return, in recording order (the order a tree assembler wants);
// unfiltered, up to limit spans return newest first (<= 0: all retained).
func (t *Traces) Spans(traceID uint64, limit int) SpanSample {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	n := t.spanNext
	if t.spanFull {
		n = len(t.spanRing)
	}
	s := SpanSample{Count: t.spanCount, TraceID: traceID}
	if traceID != 0 {
		// Oldest first: start at the oldest retained write.
		for i := 0; i < n; i++ {
			idx := i
			if t.spanFull {
				idx = (t.spanNext + i) % len(t.spanRing)
			}
			if t.spanRing[idx].TraceID == traceID {
				s.Spans = append(s.Spans, t.spanRing[idx])
			}
		}
		return s
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	s.Spans = make([]overlay.Span, 0, limit)
	for i := 0; i < limit; i++ {
		idx := (t.spanNext - 1 - i + len(t.spanRing)) % len(t.spanRing)
		s.Spans = append(s.Spans, t.spanRing[idx])
	}
	return s
}

// TraceSample is the /traces/sample document: per-stage latency summaries
// (microseconds) and the most recent records, newest first.
type TraceSample struct {
	// Count is the total number of trace records observed (not just retained).
	Count uint64 `json:"count"`
	// Stages maps stage name to its latency summary in microseconds.
	Stages map[string]metrics.Summary `json:"stages"`
	Recent []overlay.TraceRecord      `json:"recent"`
}

// Sample snapshots the store: stage summaries plus up to limit recent
// records, newest first (<= 0 returns all retained records).
func (t *Traces) Sample(limit int) TraceSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	s := TraceSample{
		Count:  t.count,
		Stages: t.StageSummaries(),
		Recent: make([]overlay.TraceRecord, 0, limit),
	}
	// Walk backwards from the most recent write.
	for i := 0; i < limit; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		s.Recent = append(s.Recent, t.ring[idx])
	}
	return s
}

// StageSummaries returns the per-stage latency summaries (microseconds).
func (t *Traces) StageSummaries() map[string]metrics.Summary {
	out := make(map[string]metrics.Summary)
	t.stages.Each(func(labelVals []string, h *metrics.Histogram) {
		out[labelVals[0]] = h.Summary()
	})
	return out
}

// Count returns the total number of trace records observed.
func (t *Traces) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}
