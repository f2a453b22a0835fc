package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryRenderAndLint(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("clash_splits_total", "Total key-group splits.")
	c.Set(3)
	cv := r.CounterVec("clash_objects_total", "Objects by status.", "status")
	cv.With("ok").Set(10)
	cv.With("wrong").Inc()
	g := r.Gauge("clash_load_total", "Node load fraction.")
	g.Set(0.75)
	gv := r.GaugeVec("clash_group_load", "Per-group load.", "group")
	gv.With(`0"1\`).Set(1.5)
	h := r.HistogramVec("clash_trace_stage_seconds", "Per-stage latency.", "stage")
	h.With("route").Record(200)
	h.With("route").Record(500000)
	h.With("match").Record(1000)
	r.OnCollect(func() { g.Set(0.9) })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE clash_splits_total counter",
		"clash_splits_total 3",
		`clash_objects_total{status="ok"} 10`,
		`clash_objects_total{status="wrong"} 1`,
		"clash_load_total 0.9", // collector ran at render time
		`clash_group_load{group="0\"1\\"} 1.5`,
		`clash_trace_stage_seconds_bucket{stage="route",le="+Inf"} 2`,
		`clash_trace_stage_seconds_count{stage="route"} 2`,
		`clash_trace_stage_seconds_count{stage="match"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "clash_group_load") > strings.Index(out, "clash_load_total") {
		t.Error("families not sorted by name")
	}
	// The registry's own output must pass the lint checker.
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("self-lint failed: %v", errs)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("h_seconds", "test").With()
	for _, v := range []int64{1, 2, 40, 2000000} {
		h.Record(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`h_seconds_bucket{le="1e-06"} 1`,
		`h_seconds_bucket{le="3e-06"} 2`,
		`h_seconds_bucket{le="1.5e-05"} 2`,
		`h_seconds_bucket{le="6.3e-05"} 3`,
		`h_seconds_bucket{le="1.048575"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		`h_seconds_count 4`,
		`h_seconds_sum 2.000043`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint: %v", errs)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "t")
	h := r.HistogramVec("h_seconds", "t").With()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Record(int64(j))
				var b strings.Builder
				_ = r.WritePrometheus(&b)
			}
		}()
	}
	wg.Wait()
	if got := c.c.val.Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := h.count.Load(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestGaugeVecReset(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("g", "t", "k")
	gv.With("a").Set(1)
	gv.With("b").Set(2)
	gv.Reset()
	gv.With("c").Set(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, `k="a"`) || strings.Contains(out, `k="b"`) {
		t.Errorf("reset children still rendered:\n%s", out)
	}
	if !strings.Contains(out, `g{k="c"} 3`) {
		t.Errorf("missing post-reset child:\n%s", out)
	}
}

func TestLintCatchesBrokenExpositions(t *testing.T) {
	cases := map[string]string{
		"undeclared sample": "no_type_metric 1\n",
		"bad name":          "# TYPE 9bad counter\n",
		"bad value":         "# TYPE m counter\nm notanumber\n",
		"negative counter":  "# TYPE m counter\nm -5\n",
		"duplicate type":    "# TYPE m counter\n# TYPE m gauge\nm 1\n",
		"unknown type":      "# TYPE m widget\nm 1\n",
		"non-cumulative histogram": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + "h_sum 1\nh_count 5\n",
		"missing inf bucket": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + "h_sum 1\nh_count 5\n",
		"inf != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\n" + "h_sum 1\nh_count 5\n",
		"unterminated labels": "# TYPE m gauge\nm{k=\"v 1\n",
	}
	for name, input := range cases {
		if errs := LintPrometheus(strings.NewReader(input)); len(errs) == 0 {
			t.Errorf("%s: lint found no errors in %q", name, input)
		}
	}
	clean := "# HELP m help text\n# TYPE m gauge\n" + `m{k="v"} ` + "1\nm 2.5 1700000000\n"
	if errs := LintPrometheus(strings.NewReader(clean)); len(errs) != 0 {
		t.Errorf("clean input flagged: %v", errs)
	}
}

func TestRegistryEmptyFamilies(t *testing.T) {
	// A registered Vec with no resolved children is a declared family with
	// zero samples: the HELP/TYPE header must still render (scrapers discover
	// the family before its first event) and the exposition must lint clean.
	r := NewRegistry()
	r.CounterVec("empty_total", "No children yet.", "reason")
	r.GaugeVec("empty_gauge", "No children yet.", "peer")
	r.HistogramVec("empty_seconds", "No children yet.", "stage")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{"empty_total", "empty_gauge", "empty_seconds"} {
		if !strings.Contains(out, "# TYPE "+fam+" ") || !strings.Contains(out, "# HELP "+fam+" ") {
			t.Errorf("empty family %s lost its header:\n%s", fam, out)
		}
	}
	for _, ln := range strings.Split(out, "\n") {
		if ln != "" && !strings.HasPrefix(ln, "#") {
			t.Errorf("empty registry rendered a sample: %q", ln)
		}
	}
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint: %v", errs)
	}
}

func TestHistogramZeroCountExposition(t *testing.T) {
	// A histogram that exists but has observed nothing must still expose the
	// full cumulative bucket ladder (all zero), _sum 0 and _count 0 — and the
	// +Inf bucket must equal _count so the lint consistency pass stays green.
	r := NewRegistry()
	r.HistogramVec("idle_seconds", "Never observed.").With()
	r.HistogramVec("idle_vec_seconds", "Child resolved, never observed.", "stage").With("route")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`idle_seconds_bucket{le="1e-06"} 0`,
		`idle_seconds_bucket{le="1.048575"} 0`,
		`idle_seconds_bucket{le="+Inf"} 0`,
		"idle_seconds_sum 0",
		"idle_seconds_count 0",
		`idle_vec_seconds_bucket{stage="route",le="+Inf"} 0`,
		`idle_vec_seconds_count{stage="route"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in\n%s", want, out)
		}
	}
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint: %v", errs)
	}
}

func TestLabelEscapingRoundTrip(t *testing.T) {
	// Rendered label values with every escapable byte must parse back to the
	// original through the lint-side parser.
	hostile := "a\\b\"c\nd,e{f}g"
	r := NewRegistry()
	r.GaugeVec("esc", "t", "k").With(hostile).Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "a\\b\"c\nd") {
		t.Fatalf("label value rendered unescaped:\n%q", out)
	}
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint: %v", errs)
	}
	var sample string
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "esc{") {
			sample = ln
		}
	}
	if sample == "" {
		t.Fatalf("no esc sample in\n%s", out)
	}
	inner := sample[strings.IndexByte(sample, '{')+1 : strings.LastIndexByte(sample, '}')]
	pairs, err := parseLabels(inner)
	if err != nil {
		t.Fatalf("parseLabels(%q): %v", inner, err)
	}
	if len(pairs) != 1 || pairs[0].Key != "k" || pairs[0].Val != hostile {
		t.Errorf("round trip = %+v, want k=%q", pairs, hostile)
	}
}

func TestLintEdgeCases(t *testing.T) {
	broken := map[string]string{
		"histogram missing sum": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_count 2\n",
		"histogram missing count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\n",
		"histogram plain sample": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\nh 5\n",
		"bucket missing le": "# TYPE h histogram\n" +
			`h_bucket{stage="route"} 2` + "\nh_sum 1\nh_count 2\n",
		"bucket bad le": "# TYPE h histogram\n" +
			`h_bucket{le="wide"} 2` + "\nh_sum 1\nh_count 2\n",
		"duplicate help":    "# HELP m a\n# HELP m b\n# TYPE m gauge\nm 1\n",
		"type without type": "# TYPE m\nm 1\n",
		"bad timestamp":     "# TYPE m gauge\nm 1 soon\n",
		"bad label escape":  "# TYPE m gauge\n" + `m{k="a\tb"} 1` + "\n",
		"bad label name":    "# TYPE m gauge\n" + `m{9k="v"} 1` + "\n",
		"unquoted label":    "# TYPE m gauge\nm{k=v} 1\n",
		"nan counter":       "# TYPE m counter\nm NaN\n",
	}
	for name, input := range broken {
		if errs := LintPrometheus(strings.NewReader(input)); len(errs) == 0 {
			t.Errorf("%s: lint found no errors in %q", name, input)
		}
	}
	clean := map[string]string{
		"empty input":                 "",
		"declared family, no samples": "# HELP m help\n# TYPE m counter\n",
		"negative gauge":              "# TYPE m gauge\nm -5\n",
		"inf gauge":                   "# TYPE m gauge\nm{k=\"v\"} +Inf\nm -Inf\n",
		"free comment":                "# just a note\n# TYPE m gauge\nm 1\n",
		"summary family":              "# TYPE s summary\ns_sum 3\ns_count 2\n",
		"escaped labels":              "# TYPE m gauge\n" + `m{k="a\\b\"c\nd"} 1` + "\n",
		"zero histogram": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 0` + "\n" + `h_bucket{le="+Inf"} 0` + "\nh_sum 0\nh_count 0\n",
	}
	for name, input := range clean {
		if errs := LintPrometheus(strings.NewReader(input)); len(errs) != 0 {
			t.Errorf("%s: clean input flagged: %v", name, errs)
		}
	}
}
