package cluster

import (
	"math"
	"strings"
	"testing"

	"clash/internal/hub"
	"clash/internal/metrics"
	"clash/internal/overlay"
)

func TestParseMetrics(t *testing.T) {
	text := `# HELP clash_objects_total ACCEPT_OBJECT requests by outcome.
# TYPE clash_objects_total counter
clash_objects_total{status="ok"} 12
clash_objects_total{status="corrected"} 3
clash_load_fraction 0.25
clash_build_info{version="dev",goversion="go1.24",gomaxprocs="8"} 1
weird_label{a="x\"y",b="line\nz",c="back\\slash"} 42
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Sum("clash_objects_total"); got != 15 {
		t.Errorf("Sum(objects) = %v, want 15", got)
	}
	objs := m.Select("clash_objects_total")
	if len(objs) != 2 {
		t.Fatalf("Select(objects) = %d samples, want 2", len(objs))
	}
	if s := objs[0]; s.Labels["status"] != "ok" || s.Value != 12 {
		t.Errorf("objects{status=ok} = %+v", s)
	}
	if lf := m.Select("clash_load_fraction"); len(lf) != 1 || lf[0].Value != 0.25 {
		t.Errorf("Select(load_fraction) = %+v", lf)
	}
	ws := m.Select("weird_label")
	if len(ws) != 1 {
		t.Fatalf("Select(weird_label) = %d samples", len(ws))
	}
	want := map[string]string{"a": `x"y`, "b": "line\nz", "c": `back\slash`}
	for k, v := range want {
		if ws[0].Labels[k] != v {
			t.Errorf("label %s = %q, want %q", k, ws[0].Labels[k], v)
		}
	}

	for _, bad := range []string{
		"no_value_here\n",
		"name{unterminated 3\n",
		`name{a=unquoted} 3` + "\n",
		"name{a=\"x\"} not_a_number\n",
	} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics accepted %q", bad)
		}
	}
}

// TestPromParsersAgree feeds the same sample lines to both consumers of the
// exposition format, the linter and the scrape parser: each line is either
// accepted by both, with the same value, or rejected by both.
func TestPromParsersAgree(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
		want float64
	}{
		{`m 1`, true, 1},
		{`m{a="x\"y",b="line\nz"} 2.5`, true, 2.5},
		{`m +Inf`, true, math.Inf(1)},
		{`m Inf`, true, math.Inf(1)},
		{`m -Inf`, true, math.Inf(-1)},
		{`m 3 1700000000000`, true, 3},
		{`m{a="bad\q"} 1`, false, 0},
		{`m{a=unquoted} 1`, false, 0},
		{`m{9a="x"} 1`, false, 0},
		{`m{a="x" 1`, false, 0},
		{`m not_a_number`, false, 0},
		{`m`, false, 0},
		{`m 1 2 3`, false, 0},
	} {
		lintErrs := metrics.LintPrometheus(strings.NewReader("# TYPE m gauge\n" + tc.line + "\n"))
		scraped, err := parseMetrics(strings.NewReader(tc.line + "\n"))
		if got := len(lintErrs) == 0; got != tc.ok {
			t.Errorf("%q: LintPrometheus accepted=%v (%v), want %v", tc.line, got, lintErrs, tc.ok)
		}
		if got := err == nil; got != tc.ok {
			t.Errorf("%q: parseMetrics accepted=%v (%v), want %v", tc.line, got, err, tc.ok)
		}
		if tc.ok && err == nil {
			if ms := scraped.Select("m"); len(ms) != 1 || ms[0].Value != tc.want {
				t.Errorf("%q: parseMetrics samples %+v, want one of value %v", tc.line, ms, tc.want)
			}
		}
	}
}

func TestMergedBucketQuantiles(t *testing.T) {
	text := `h_bucket{stage="route",le="0.001"} 10
h_bucket{stage="route",le="0.01"} 90
h_bucket{stage="route",le="+Inf"} 100
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	mb := make(mergedBuckets)
	mb.addHistogram(m, "h", "stage")
	// Merging the same scrape again doubles every count; quantiles are
	// unchanged (they are rank-relative).
	mb.addHistogram(m, "h", "stage")

	qs := mb.quantiles("route", 0.50, 0.99)
	// p50: rank 100 of 200 falls in (0.001, 0.01], prev count 20, span 160:
	// 0.001 + 0.009*(80/160) = 0.0055.
	if math.Abs(qs[0]-0.0055) > 1e-9 {
		t.Errorf("p50 = %v, want 0.0055", qs[0])
	}
	// p99: rank 198 lands in the +Inf bucket, estimated at its lower bound.
	if qs[1] != 0.01 {
		t.Errorf("p99 = %v, want 0.01", qs[1])
	}
	if got := mb.quantiles("missing", 0.5); got[0] != 0 {
		t.Errorf("quantile of missing key = %v", got)
	}
}

// span is a test shorthand for building overlay spans.
func span(trace, id, parent uint64, kind, node string, hop int, micros int64) overlay.Span {
	return overlay.Span{
		TraceID: trace, SpanID: id, Parent: parent,
		Kind: kind, Node: node, Hop: hop, HandlerMicros: micros,
	}
}

func TestAssembleTrace(t *testing.T) {
	spans := []overlay.Span{
		span(7, 1, 0, overlay.HopIngress, "n1", 0, 10),
		span(7, 2, 1, overlay.HopResolve, "n2", 1, 5),
		span(7, 3, 2, overlay.HopRouteForward, "n3", 2, 20),
		span(7, 4, 3, overlay.HopCQMatch, "n3", 2, 7),
		span(7, 5, 4, overlay.HopDeliver, "n3", 3, 30),
		span(7, 2, 1, overlay.HopResolve, "n2", 1, 5), // duplicate scrape
		span(9, 6, 0, overlay.HopIngress, "n1", 0, 1), // other trace
	}
	tree := AssembleTrace(7, spans)
	if !tree.Complete {
		t.Fatalf("tree not complete: %+v", tree)
	}
	if tree.Spans != 5 {
		t.Errorf("Spans = %d, want 5 (dedup + trace filter)", tree.Spans)
	}
	if tree.Root == nil || tree.Root.Kind != overlay.HopIngress {
		t.Fatalf("root = %+v", tree.Root)
	}
	// The chain is linear, so the critical path is the whole path.
	if len(tree.CriticalPath) != 5 {
		t.Fatalf("critical path %d hops, want 5: %+v", len(tree.CriticalPath), tree.CriticalPath)
	}
	if tree.CriticalPathMicros != 10+5+20+7+30 {
		t.Errorf("critical path micros = %d, want 72", tree.CriticalPathMicros)
	}
	last := tree.CriticalPath[len(tree.CriticalPath)-1]
	if last.Kind != overlay.HopDeliver || last.CumMicros != tree.CriticalPathMicros {
		t.Errorf("critical path tail = %+v", last)
	}

	// Branching: the path must follow the heavier child.
	branchy := []overlay.Span{
		span(8, 1, 0, overlay.HopIngress, "n1", 0, 10),
		span(8, 2, 1, overlay.HopCQMatch, "n1", 0, 1),
		span(8, 3, 1, overlay.HopReplicaPush, "n2", 1, 50),
	}
	bt := AssembleTrace(8, branchy)
	if !bt.Complete || bt.CriticalPathMicros != 60 {
		t.Fatalf("branchy critical path = %d (complete=%v), want 60", bt.CriticalPathMicros, bt.Complete)
	}

	// An orphan (missing parent) breaks completeness but still reports.
	orphaned := []overlay.Span{
		span(5, 1, 0, overlay.HopIngress, "n1", 0, 1),
		span(5, 9, 42, overlay.HopDeliver, "n2", 3, 1),
	}
	ot := AssembleTrace(5, orphaned)
	if ot.Complete {
		t.Error("orphaned tree reported complete")
	}
	if len(ot.Orphans) != 1 || ot.Orphans[0].SpanID != 9 {
		t.Errorf("orphans = %+v", ot.Orphans)
	}

	// A tree whose only root is not an ingress hop is incomplete (the real
	// root was overwritten in some node's ring).
	rootless := []overlay.Span{span(4, 2, 0, overlay.HopDeliver, "n1", 3, 1)}
	if AssembleTrace(4, rootless).Complete {
		t.Error("non-ingress root reported complete")
	}
	if AssembleTrace(3, nil).Complete {
		t.Error("empty trace reported complete")
	}
}

func TestRecentTraces(t *testing.T) {
	views := []NodeView{
		{Spans: []overlay.Span{
			{TraceID: 1, SpanID: 1, Kind: overlay.HopIngress, TimeMs: 100},
			{TraceID: 2, SpanID: 2, Kind: overlay.HopIngress, TimeMs: 300},
		}},
		{Spans: []overlay.Span{
			{TraceID: 3, SpanID: 3, Kind: overlay.HopIngress, TimeMs: 200},
		}},
	}
	trees := RecentTraces(views, 2)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	if trees[0].TraceID != 2 || trees[1].TraceID != 3 {
		t.Errorf("recent order = %d, %d; want 2, 3", trees[0].TraceID, trees[1].TraceID)
	}
}

func topoNode(addr string, id uint64, succ string, groups ...string) overlay.TopoNode {
	n := overlay.TopoNode{Addr: addr, ID: id, Successors: []string{succ}}
	for _, g := range groups {
		n.Groups = append(n.Groups, overlay.TopoGroup{Group: g})
	}
	return n
}

func testTopo(nodes ...overlay.TopoNode) *hub.TopologyView {
	return &hub.TopologyView{Complete: true, Nodes: nodes}
}

func probeByName(t *testing.T, probes []Probe, name string) Probe {
	t.Helper()
	for _, p := range probes {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no probe %q in %+v", name, probes)
	return Probe{}
}

func TestProbeCoverage(t *testing.T) {
	ok := testTopo(
		topoNode("a", 1, "b", "00*", "01*"),
		topoNode("b", 2, "a", "1*"),
	)
	if p := probeCoverage(ok); !p.OK {
		t.Errorf("exact tiling flagged: %+v", p)
	}

	gap := testTopo(topoNode("a", 1, "a", "00*", "1*"))
	if p := probeCoverage(gap); p.OK || len(p.Violations) == 0 {
		t.Errorf("gap not flagged: %+v", p)
	}

	// A nested overlap is one violation; the keys after it are covered, so
	// no gap may be reported, whatever order the groups arrive in.
	for _, nested := range [][]string{{"0*", "00*", "1*"}, {"00*", "0*", "1*"}, {"0*", "010*", "1*"}} {
		p := probeCoverage(testTopo(topoNode("a", 1, "a", nested...)))
		if p.OK || len(p.Violations) != 1 || !strings.HasPrefix(p.Violations[0], "overlap") {
			t.Errorf("nested overlap %v: want exactly one overlap, got %+v", nested, p)
		}
	}

	// A group active on two nodes is an overlap even though the two copies
	// share one name.
	dup := testTopo(
		topoNode("a", 1, "b", "0*", "1*"),
		topoNode("b", 2, "a", "1*"),
	)
	if p := probeCoverage(dup); p.OK || len(p.Violations) != 1 ||
		!strings.Contains(p.Violations[0], "held by b and a") {
		t.Errorf("group held by two nodes: want one overlap naming both holders, got %+v", p)
	}

	root := testTopo(topoNode("a", 1, "a", "*"))
	if p := probeCoverage(root); !p.OK {
		t.Errorf("single root group flagged: %+v", p)
	}

	incomplete := testTopo(topoNode("a", 1, "a", "00*"))
	incomplete.Complete = false
	if p := probeCoverage(incomplete); p.OK {
		t.Errorf("incomplete walk must not report OK: %+v", p)
	}
}

func TestProbeSuccessors(t *testing.T) {
	ok := testTopo(
		topoNode("a", 10, "b"),
		topoNode("b", 20, "c"),
		topoNode("c", 30, "a"),
	)
	if p := probeSuccessors(ok); !p.OK {
		t.Errorf("consistent ring flagged: %+v", p)
	}

	bad := testTopo(
		topoNode("a", 10, "c"), // skips b
		topoNode("b", 20, "c"),
		topoNode("c", 30, "a"),
	)
	p := probeSuccessors(bad)
	if p.OK || len(p.Violations) != 1 {
		t.Errorf("skipped successor not flagged: %+v", p)
	}
}

func TestProbeReplicas(t *testing.T) {
	ok := testTopo(
		topoNode("a", 1, "b", "0*"),
		topoNode("b", 2, "a", "1*"),
	)
	ok.Nodes[0].ReplicaOrigins = []string{"b"}
	ok.Nodes[1].ReplicaOrigins = []string{"a"}
	if p := probeReplicas(ok); !p.OK {
		t.Errorf("replicated ring flagged: %+v", p)
	}

	missing := testTopo(
		topoNode("a", 1, "b", "0*"),
		topoNode("b", 2, "a", "1*"),
	)
	missing.Nodes[0].ReplicaOrigins = []string{"b"}
	p := probeReplicas(missing)
	if p.OK || len(p.Violations) != 1 {
		t.Errorf("unreplicated holder not flagged: %+v", p)
	}

	single := testTopo(topoNode("a", 1, "a", "*"))
	if p := probeReplicas(single); !p.OK {
		t.Errorf("single-node ring must pass vacuously: %+v", p)
	}
}

func TestRunProbesNoTopology(t *testing.T) {
	probes := RunProbes(nil)
	if len(probes) != 3 {
		t.Fatalf("got %d probes, want 3", len(probes))
	}
	for _, p := range probes {
		if p.OK {
			t.Errorf("probe %s OK without topology", p.Name)
		}
	}
}

func TestAggregate(t *testing.T) {
	mkMetrics := func(text string) *Metrics {
		m, err := parseMetrics(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	v := &View{
		Nodes: []NodeView{
			{
				Hub: "h1", Addr: "a",
				Build:  BuildInfo{Version: "dev", GoVersion: "go1.24"},
				Status: &overlay.Status{ActiveGroups: []string{"0*"}, Queries: 2},
				Metrics: mkMetrics(`clash_objects_total{status="ok"} 10
clash_splits_total 3
clash_group_load_fraction{group="0*"} 0.6
clash_trace_stage_seconds_bucket{stage="route",le="0.001"} 5
clash_trace_stage_seconds_bucket{stage="route",le="+Inf"} 10
clash_trace_stage_seconds_count{stage="route"} 10
`),
				Spans: []overlay.Span{{TraceID: 1, SpanID: 1}},
			},
			{
				Hub: "h2", Addr: "b",
				Build:  BuildInfo{Version: "dev2", GoVersion: "go1.24"},
				Status: &overlay.Status{ActiveGroups: []string{"1*"}, Queries: 1},
				Metrics: mkMetrics(`clash_objects_total{status="ok"} 5
clash_objects_total{status="wrong"} 1
clash_splits_total 1
clash_group_load_fraction{group="1*"} 0.9
`),
			},
			{Hub: "h3", Err: "connection refused"},
		},
		Topo: testTopo(
			topoNode("a", 1, "b", "0*"),
			topoNode("b", 2, "a", "1*"),
		),
	}
	f := Aggregate(v)
	if f.Nodes != 3 || f.Reachable != 2 {
		t.Errorf("nodes/reachable = %d/%d, want 3/2", f.Nodes, f.Reachable)
	}
	if !f.VersionSkew || len(f.Builds) != 2 {
		t.Errorf("version skew not detected: %+v", f.Builds)
	}
	if f.Objects["ok"] != 15 || f.Objects["wrong"] != 1 {
		t.Errorf("objects = %+v", f.Objects)
	}
	if f.Counters["splits"] != 4 {
		t.Errorf("splits = %v, want 4", f.Counters["splits"])
	}
	if f.GroupsActive != 2 || f.Queries != 3 {
		t.Errorf("groups/queries = %d/%d, want 2/3", f.GroupsActive, f.Queries)
	}
	if f.Spans != 1 {
		t.Errorf("spans = %d, want 1", f.Spans)
	}
	route, ok := f.Stages["route"]
	if !ok || route.Count != 10 || route.P50 <= 0 {
		t.Errorf("route stage = %+v (ok=%v)", route, ok)
	}
	if len(f.Heat) != 2 || f.Heat[0].Group != "1*" || f.Heat[0].Holder != "b" {
		t.Errorf("heat = %+v", f.Heat)
	}
}
