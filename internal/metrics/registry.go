package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a Prometheus-text-format metric registry: named families of
// counters, gauges and histograms, each optionally split by a fixed label
// set. Hot-path updates (Counter.Inc, Histogram.Record) are atomic
// operations on pre-resolved handles — no map lookups, no allocation — so the
// data path can record per-packet without a lock. Rendering walks the
// families sorted by name, producing deterministic output a scraper can diff.
//
// Histogram families take integer microsecond samples and render them in
// seconds (their names end in _seconds) at the fixed exposeBounds ladder.
//
// Scrape-time state (the node's group table, the suspicion snapshot, the
// transport counters) is absorbed through OnCollect callbacks that run once
// per render and write the current values into gauges/counters, so the hot
// paths that maintain that state stay untouched.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Metric family types (the TYPE line vocabulary this registry emits).
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric family: a type, a help line, a fixed label-key
// list and the children keyed by their label values.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu       sync.Mutex
	children map[string]*child
	order    []string
}

// child is the storage cell for one label-value combination: val holds a
// counter count or gauge bits; hist is set for histogram families only.
type child struct {
	labelVals []string
	val       atomic.Uint64
	hist      *Histogram
}

// Counter is a monotonically increasing value.
type Counter struct{ c *child }

// Inc adds one.
func (c Counter) Inc() { c.c.val.Add(1) }

// Set overwrites the count. It exists for OnCollect callbacks mirroring an
// externally maintained cumulative counter; hot paths use Inc.
func (c Counter) Set(n uint64) { c.c.val.Store(n) }

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Set overwrites the value.
func (g Gauge) Set(v float64) { g.c.val.Store(math.Float64bits(v)) }

// CounterVec / GaugeVec / HistogramVec are label-keyed families; With
// resolves one label-value combination to its handle (creating it on first
// use). Resolution takes the family lock — callers on hot paths resolve once
// and keep the handle.
type CounterVec struct{ f *family }
type GaugeVec struct{ f *family }
type HistogramVec struct{ f *family }

// With returns the counter for the given label values (in key order).
func (v CounterVec) With(labelVals ...string) Counter {
	return Counter{c: v.f.child(labelVals)}
}

// With returns the gauge for the given label values (in key order).
func (v GaugeVec) With(labelVals ...string) Gauge {
	return Gauge{c: v.f.child(labelVals)}
}

// With returns the histogram for the given label values (in key order).
func (v HistogramVec) With(labelVals ...string) *Histogram {
	return v.f.child(labelVals).hist
}

// Each calls fn for every child of the family with its label values (in key
// order), in creation order.
func (v HistogramVec) Each(fn func(labelVals []string, h *Histogram)) {
	v.f.mu.Lock()
	children := make([]*child, 0, len(v.f.order))
	for _, k := range v.f.order {
		children = append(children, v.f.children[k])
	}
	v.f.mu.Unlock()
	for _, c := range children {
		fn(c.labelVals, c.hist)
	}
}

// Reset drops every child of the family. OnCollect callbacks mirroring a
// keyed snapshot (per-group loads, per-peer suspicion) call it first so
// entries that disappeared from the snapshot disappear from the scrape.
func (v GaugeVec) Reset() { v.f.reset() }

func (f *family) reset() {
	f.mu.Lock()
	f.children = make(map[string]*child)
	f.order = nil
	f.mu.Unlock()
}

// child resolves (or creates) the cell for one label-value combination.
func (f *family) child(labelVals []string) *child {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelVals: append([]string(nil), labelVals...)}
		if f.typ == typeHistogram {
			c.hist = NewHistogram()
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// validName reports whether s is a legal metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*) or, with colonOK false, a legal label name.
func validName(s string, colonOK bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r == ':' && colonOK:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// register creates (or returns) a family, panicking on an invalid name or a
// redefinition with a different shape — both programmer errors.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if !validName(name, true) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l, false) {
			panic("metrics: invalid label name " + strconv.Quote(l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic("metrics: conflicting redefinition of " + name)
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic("metrics: conflicting redefinition of " + name)
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) Counter {
	f := r.register(name, help, typeCounter, nil)
	return Counter{c: f.child(nil)}
}

// CounterVec registers (or returns) a counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{f: r.register(name, help, typeCounter, labels)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	f := r.register(name, help, typeGauge, nil)
	return Gauge{c: f.child(nil)}
}

// GaugeVec registers (or returns) a gauge family with the given label keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{f: r.register(name, help, typeGauge, labels)}
}

// HistogramVec registers (or returns) a histogram family with label keys.
// Its children record integer microseconds and render in seconds.
func (r *Registry) HistogramVec(name, help string, labels ...string) HistogramVec {
	return HistogramVec{f: r.register(name, help, typeHistogram, labels)}
}

// OnCollect registers a callback run (in registration order) at the start of
// every render; callbacks copy scrape-time state into their metrics.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// escapeLabel escapes a label value for the text format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendLabels renders {k="v",...}, merging extra (used for the histogram
// "le" label) after the family labels.
func appendLabels(b *strings.Builder, keys, vals []string, extraKey, extraVal string) {
	if len(keys) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WritePrometheus runs the collectors and renders every family in the
// Prometheus text exposition format, sorted by family name (children sorted
// by label values).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// render writes one family.
func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()

	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.typ)
	b.WriteByte('\n')
	for _, c := range children {
		switch f.typ {
		case typeCounter:
			b.WriteString(f.name)
			appendLabels(b, f.labels, c.labelVals, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(c.val.Load(), 10))
			b.WriteByte('\n')
		case typeGauge:
			b.WriteString(f.name)
			appendLabels(b, f.labels, c.labelVals, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(math.Float64frombits(c.val.Load())))
			b.WriteByte('\n')
		case typeHistogram:
			atBound, total := c.hist.cumulative()
			for i := 0; i <= len(atBound); i++ {
				le, cum := "+Inf", total
				if i < len(atBound) {
					le, cum = formatFloat(float64(exposeBounds[i])/1e6), atBound[i]
				}
				b.WriteString(f.name)
				b.WriteString("_bucket")
				appendLabels(b, f.labels, c.labelVals, "le", le)
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
			}
			b.WriteString(f.name)
			b.WriteString("_sum")
			appendLabels(b, f.labels, c.labelVals, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(float64(c.hist.sum.Load()) / 1e6))
			b.WriteByte('\n')
			// _count repeats the +Inf bucket so the two agree even while
			// Record runs concurrently.
			b.WriteString(f.name)
			b.WriteString("_count")
			appendLabels(b, f.labels, c.labelVals, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(total, 10))
			b.WriteByte('\n')
		}
	}
}

// ServeHTTP makes the registry an http.Handler for a /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}
