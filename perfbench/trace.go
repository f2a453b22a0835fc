package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/overlay"
)

// Message types the per-layer rows are kept for, by short name.
var traceTypes = []struct{ short, wire string }{
	{"accept_object", overlay.TypeAcceptObject},
	{"find_successor", overlay.TypeFindSuccessor},
	{"match", overlay.TypeMatch},
	{"replicate_keygroup", overlay.TypeReplicateKeyGroup},
	{"accept_keygroup", overlay.TypeAcceptKeyGroup},
	{"release_keygroup", overlay.TypeReleaseKeyGroup},
}

// typeStat aggregates one message type across every transport of a
// measurement: the caller-side round trip and the callee-side handler time.
type typeStat struct {
	mu       sync.Mutex
	calls    uint64
	reqBytes uint64
	call     hist
	handler  hist
}

// span is one timed call at a layer boundary, recorded by the benchmark
// around its calls into the program. Parent links are kept only on the
// in-memory fabric, where a publish and every call it causes run on one
// goroutine; across goroutines (TCP) spans are flat and a layer's self time
// is its mean call time minus its mean handler time.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Kind   string `json:"kind"`
	Type   string `json:"type,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffers; later spans are counted only
// through the aggregates.
const maxSpans = 1 << 16

// maxCapture bounds how many ACCEPT_OBJECT request/reply payloads are kept
// for the wire replay.
const maxCapture = 4096

// tracing is the instrumentation of one traced measurement, shared by every
// cluster it boots. It records only while on: during timed phases, never
// during set-up.
type tracing struct {
	t *tracer
	o *observer
}

func newTracing(nested bool) *tracing {
	return &tracing{t: newTracer(nested), o: &observer{stages: make(map[string]*hist)}}
}

func (tg *tracing) set(on bool) {
	tg.t.on.Store(on)
	tg.o.on.Store(on)
}

// tracer is the timing decorator's shared state.
type tracer struct {
	start  time.Time
	nested bool
	on     atomic.Bool
	// registering is set around Client.Register calls, so ACCEPT_OBJECT
	// carrying a query registration is timed apart from data publishes.
	registering atomic.Bool
	types       map[string]*typeStat // fixed after newTracer: read without a lock

	mu    sync.Mutex
	spans []span
	stack []int32

	reqs, replies [][]byte
}

func newTracer(nested bool) *tracer {
	t := &tracer{start: time.Now(), nested: nested, types: make(map[string]*typeStat)}
	for _, typ := range []string{
		overlay.TypeFindSuccessor, overlay.TypePredecessor, overlay.TypeSuccessor,
		overlay.TypeNotify, overlay.TypePing, overlay.TypeAcceptObject,
		overlay.TypeAcceptBatch, overlay.TypeAcceptKeyGroup, overlay.TypeLoadReport,
		overlay.TypeReleaseKeyGroup, overlay.TypeMatch, overlay.TypeChildMoved,
		overlay.TypeStatus, overlay.TypeReplicateKeyGroup, overlay.TypeRecoverKeyGroups,
		overlay.TypeTopology, registerType, "other",
	} {
		t.types[typ] = &typeStat{}
	}
	return t
}

// registerType keys the ACCEPT_OBJECT calls that carry a registration.
const registerType = overlay.TypeAcceptObject + "(register)"

func (t *tracer) stat(msgType string) *typeStat {
	if msgType == overlay.TypeAcceptObject && t.registering.Load() {
		msgType = registerType
	}
	if s := t.types[msgType]; s != nil {
		return s
	}
	return t.types["other"]
}

// begin opens a span; end closes it. On a flat tracer the parent is 0.
// Nothing is recorded while tracing is off.
func (t *tracer) begin(kind, typ string) int32 {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	sp := span{ID: int32(len(t.spans) + 1), Kind: kind, Type: typ, Start: int64(time.Since(t.start))}
	if t.nested {
		if n := len(t.stack); n > 0 {
			sp.Parent = t.stack[n-1]
		}
		t.stack = append(t.stack, sp.ID)
	}
	t.spans = append(t.spans, sp)
	return sp.ID
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.start))
	if t.nested && len(t.stack) > 0 {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

func (t *tracer) capture(req, reply []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.reqs) < maxCapture {
		t.reqs = append(t.reqs, append([]byte(nil), req...))
		t.replies = append(t.replies, append([]byte(nil), reply...))
	}
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSONLines(path, len(t.spans), func(i int) any { return t.spans[i] })
}

func (t *tracer) wrap(tr overlay.Transport) overlay.Transport {
	return &tracedTransport{Transport: tr, t: t}
}

// tracedTransport times every call and every handler invocation by message
// type. It forwards RetryRecorder so the node's resilient caller still
// counts retries in the wrapped transport's Stats.
type tracedTransport struct {
	overlay.Transport
	t *tracer
}

var (
	_ overlay.Transport     = (*tracedTransport)(nil)
	_ overlay.RetryRecorder = (*tracedTransport)(nil)
)

func (d *tracedTransport) Call(addr, msgType string, payload []byte) ([]byte, error) {
	return d.CallOpts(addr, msgType, payload, overlay.CallOpts{})
}

func (d *tracedTransport) CallOpts(addr, msgType string, payload []byte, opts overlay.CallOpts) ([]byte, error) {
	if !d.t.on.Load() {
		return d.Transport.CallOpts(addr, msgType, payload, opts)
	}
	st := d.t.stat(msgType)
	id := d.t.begin("call", msgType)
	start := time.Now()
	reply, err := d.Transport.CallOpts(addr, msgType, payload, opts)
	el := time.Since(start)
	d.t.end(id)
	st.mu.Lock()
	st.calls++
	st.reqBytes += uint64(len(payload))
	st.call.record(int64(el))
	st.mu.Unlock()
	if err == nil && msgType == overlay.TypeAcceptObject && !d.t.registering.Load() {
		d.t.capture(payload, reply)
	}
	return reply, err
}

func (d *tracedTransport) SetHandler(h overlay.Handler) {
	if h == nil {
		d.Transport.SetHandler(nil)
		return
	}
	d.Transport.SetHandler(func(msgType string, payload []byte) ([]byte, error) {
		if !d.t.on.Load() {
			return h(msgType, payload)
		}
		st := d.t.stat(msgType)
		id := d.t.begin("handle", msgType)
		start := time.Now()
		reply, err := h(msgType, payload)
		el := time.Since(start)
		d.t.end(id)
		st.mu.Lock()
		st.handler.record(int64(el))
		st.mu.Unlock()
		return reply, err
	})
}

func (d *tracedTransport) RecordRetry() {
	if rr, ok := d.Transport.(overlay.RetryRecorder); ok {
		rr.RecordRetry()
	}
}

// observer is the in-memory overlay.Observer of a traced run: it keeps the
// nodes' stage timings and hop spans.
type observer struct {
	on     atomic.Bool
	mu     sync.Mutex
	stages map[string]*hist // values in µs, as the nodes report them
	queue  hist             // subscriber-deliver span queue wait, µs
	spans  []overlay.Span
}

func (o *observer) OnEvent(overlay.Event) {}

func (o *observer) OnTrace(overlay.TraceRecord) {}

func (o *observer) OnTraceStage(stage string, micros int64) {
	if !o.on.Load() {
		return
	}
	o.mu.Lock()
	h := o.stages[stage]
	if h == nil {
		h = &hist{}
		o.stages[stage] = h
	}
	h.record(micros)
	o.mu.Unlock()
}

func (o *observer) OnSpan(sp overlay.Span) {
	if !o.on.Load() {
		return
	}
	o.mu.Lock()
	if sp.Kind == overlay.HopDeliver {
		o.queue.record(sp.QueueMicros)
	}
	if len(o.spans) < maxSpans {
		o.spans = append(o.spans, sp)
	}
	o.mu.Unlock()
}

// stage returns the histogram of one trace stage (empty when none arrived).
func (o *observer) stage(name string) *hist {
	o.mu.Lock()
	defer o.mu.Unlock()
	if h := o.stages[name]; h != nil {
		return h
	}
	return &hist{}
}

func (o *observer) dump(path string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return writeJSONLines(path, len(o.spans), func(i int) any { return o.spans[i] })
}

func writeJSONLines(path string, n int, item func(int) any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		if err := enc.Encode(item(i)); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedTypes returns the message types with calls, in name order.
func (t *tracer) sortedTypes() []string {
	var out []string
	for k, st := range t.types {
		st.mu.Lock()
		if st.calls > 0 {
			out = append(out, k)
		}
		st.mu.Unlock()
	}
	sort.Strings(out)
	return out
}
