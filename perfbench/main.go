// Command perfbench is the CLASH benchmark: it boots a three-node overlay
// through the public overlay API, drives one workload closed-loop for a fixed
// time, checks the overlay's outputs and invariants, and prints one JSON
// result line.
//
//	perfbench -workload mem-publish -seed 1 -seconds 10 -trace 0 -out .bench_build
//
// -trace 0 prints the end-to-end metrics. -trace 1 runs the workload twice,
// untraced and then traced (timing decorator on every transport, in-memory
// observer, every publish sampled), replays the timed inputs straight into
// the core, cq and wire layers, and prints the per-layer metrics, including
// the tracing overhead between the two runs. Report lines start with "#";
// the JSON object is always the last line. The exit status is non-zero when
// any correctness check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"clash/internal/overlay"
)

// setupRounds is how many times a non-episodic workload sets up per run;
// setup_s is their median and the last setup is the one measured.
const setupRounds = 3

// minEpisodes is the least number of episodes an episodic workload runs.
const minEpisodes = 3

// sliceWidth is the slice length of a non-episodic workload's timed phase;
// an episodic workload's slices are its episodes.
const sliceWidth = 500 * time.Millisecond

// Tail quantiles. Match delivery is gated on p90: on tcp-fanout 1-3% of
// async pushes stall for 2-5 ms (a knee between p97 and p99), so any
// quantile at or above p99 swings by a quarter from run to run; the report
// prints p99 and p99.5 beside it.
const (
	opTail       = 0.99
	deliveryTail = 0.9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: mem-publish, mem-register-churn or tcp-fanout")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds (split between the untraced and traced runs with -trace 1)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build", "directory for span dumps")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	in, err := makeInputs(seed)
	if err != nil {
		return err
	}
	rep := &report{}
	var res result
	if !traced {
		m, err := measure(w, in, seed, seconds, false, rep)
		if err != nil {
			return err
		}
		// The overlay's live heap is what closing the cluster and dropping
		// it (nodes, fabric, clients) frees; the benchmark's own bookkeeping
		// stays referenced on both sides of the difference.
		up := liveHeapMB()
		s := m.last
		s.close()
		s.c, s.pubs, s.subs = nil, nil, nil
		m.heapMB = up - liveHeapMB()
		runtime.KeepAlive(s)
		res, err = endToEnd(m, rep)
		if err != nil {
			return err
		}
	} else {
		u, err := measure(w, in, seed, seconds/2, false, rep)
		if err != nil {
			return err
		}
		u.last.close()
		t, err := measure(w, in, seed, seconds/2, true, rep)
		if err != nil {
			return err
		}
		defer t.last.close()
		res, err = perLayer(w, u, t, rep)
		if err != nil {
			return err
		}
		base := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d", w.name, seed))
		if err := t.tracing.t.dump(base + ".bench-spans.jsonl"); err != nil {
			return err
		}
		if err := t.tracing.o.dump(base + ".node-spans.jsonl"); err != nil {
			return err
		}
		rep.add("spans written to %s.{bench,node}-spans.jsonl", base)
	}
	res.Correct = len(rep.problems) == 0 && res.Failed == 0
	for _, p := range rep.problems {
		rep.add("FAILED CHECK: %s", p)
	}
	rep.print()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// report collects the human-readable lines printed before the result.
type report struct {
	lines    []string
	problems []string
}

func (r *report) add(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print() {
	for _, l := range r.lines {
		fmt.Println("# " + l)
	}
}

// measurement is one measured run of a workload: its set-ups, its timed
// phases' costs and the last session, still up.
type measurement struct {
	tracing *tracing // nil when untraced
	setups  []float64
	rec     recorder // every timed phase
	cost    cost
	deliver hist
	read    int64
	// deliverSlices are the match-delivery slices of every timed phase.
	deliverSlices []sliceStat
	stats         overlay.TransportStats
	swaps         uint64
	waits         uint64
	episodes      int
	heapMB        float64
	drops         drops
	last          *session
}

// drops sums the overlay's drop counters at the end of timed phases.
type drops struct{ match, transfer, orphan, client int64 }

// measure sets up and drives one workload. Non-episodic workloads set up
// setupRounds times and drive the last session until the deadline;
// episodic ones set up and drive one episode at a time until the deadline
// has passed and at least minEpisodes have run. Every session is checked
// before it is closed, and every layout digest must match the first.
func measure(w *workloadDef, in *inputs, seed int64, seconds float64, traced bool, rep *report) (*measurement, error) {
	m := &measurement{}
	mode := "untraced"
	if traced {
		m.tracing = newTracing(!w.tcp)
		mode = "traced"
	}
	digests := map[string]string{}
	checkDigest := func(when, d string) {
		first, ok := digests[when]
		if !ok {
			digests[when] = d
			rep.add("%s %s layout digest %s: %s", w.name, mode, when, d)
		} else if d != first {
			rep.fail("layout digest %s %q differs from %q", when, d, first)
		}
	}
	setup := func() (*session, error) {
		start := time.Now()
		s, err := w.setup(in, seed, m.tracing)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		checkDigest("after set-up", s.digest)
		return s, nil
	}
	width := sliceWidth
	if w.episodic {
		width = 0
	}
	timed := func(s *session, until time.Time) {
		st0, sw0, lw0 := clusterCounters(s.c)
		u0 := takeUsage()
		s.startTimed(width, m.episodes)
		r := recorder{sl: newSlicer(s.sliceAt, width, m.episodes, opTail)}
		if m.tracing != nil {
			m.tracing.set(true)
		}
		w.drive(s, until, &r)
		if m.tracing != nil {
			m.tracing.set(false)
		}
		r.finish(now())
		u1 := takeUsage()
		m.cost.add(u0, u1)
		if s.c.cfg.tcp {
			s.settle(s.inlineTotal())
		}
		m.deliver.merge(&s.deliver)
		s.deliverSl.flush(now())
		m.deliverSlices = append(m.deliverSlices, s.deliverSl.stats...)
		m.deliverSlices = append(m.deliverSlices, s.deliverSlices...)
		m.read += s.read.Load()
		st1, sw1, lw1 := clusterCounters(s.c)
		m.stats = addStats(m.stats, subStats(st1, st0))
		m.swaps += sw1 - sw0
		m.waits += lw1 - lw0
		m.rec.merge(&r)
		if r.inline != r.expected {
			rep.fail("publishes reported %d inline matches, inputs and placement imply %d", r.inline, r.expected)
		}
		if got, want := s.read.Load(), s.inlineTotal(); got != int64(want) {
			rep.fail("subscribers read %d matches, publishes reported %d inline", got, want)
		}
		for _, p := range s.c.check(s.registered) {
			rep.fail("%s", p)
		}
		for _, n := range s.c.nodes {
			m.drops.match += n.MatchDrops()
			m.drops.transfer += n.TransferDrops()
			m.drops.orphan += n.OrphanDrops()
		}
		for _, cl := range s.c.clients {
			m.drops.client += cl.Drops()
		}
	}

	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	if w.episodic {
		for m.episodes < minEpisodes || time.Now().Before(deadline) {
			if m.last != nil {
				m.last.close()
				m.last = nil
			}
			s, err := setup()
			if err != nil {
				return nil, err
			}
			m.last = s
			timed(s, deadline)
			checkDigest("after episode", s.c.digest())
			m.episodes++
		}
	} else {
		for k := 0; k < setupRounds; k++ {
			if m.last != nil {
				for _, p := range m.last.c.check(m.last.registered) {
					rep.fail("%s", p)
				}
				m.last.close()
				m.last = nil
			}
			s, err := setup()
			if err != nil {
				return nil, err
			}
			m.last = s
		}
		// The deadline counts from the start of the timed phase.
		timed(m.last, time.Now().Add(time.Duration(seconds*float64(time.Second))))
		m.episodes = 1
	}
	return m, nil
}

// clusterCounters sums the transport stats, snapshot swaps and lock waits
// over a cluster.
func clusterCounters(c *cluster) (st overlay.TransportStats, swaps, waits uint64) {
	for _, tr := range c.trs {
		st = addStats(st, tr.Stats())
	}
	for _, n := range c.nodes {
		swaps += n.Server().SnapshotSwaps()
		for _, sh := range n.Server().ShardStats() {
			waits += sh.LockWaits
		}
	}
	return st, swaps, waits
}

func addStats(a, b overlay.TransportStats) overlay.TransportStats {
	a.FramesIn += b.FramesIn
	a.FramesOut += b.FramesOut
	a.BytesIn += b.BytesIn
	a.BytesOut += b.BytesOut
	a.Timeouts += b.Timeouts
	a.Retries += b.Retries
	a.Shed += b.Shed
	a.OversizedDrops += b.OversizedDrops
	return a
}

func subStats(a, b overlay.TransportStats) overlay.TransportStats {
	a.FramesIn -= b.FramesIn
	a.FramesOut -= b.FramesOut
	a.BytesIn -= b.BytesIn
	a.BytesOut -= b.BytesOut
	a.Timeouts -= b.Timeouts
	a.Retries -= b.Retries
	a.Shed -= b.Shed
	a.OversizedDrops -= b.OversizedDrops
	return a
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd turns an untraced measurement into the end-to-end metrics.
func endToEnd(m *measurement, rep *report) (result, error) {
	r := &m.rec
	ops := float64(r.ops)
	res := result{Attempted: r.ops, Failed: r.failed, Metrics: map[string]metric{}}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(m.setups))
	rep.add("setup_s=%.4f (median of %d set-ups)", median(m.setups), len(m.setups))
	opSl := summarize(r.slices, opTail)
	dlSl := summarize(m.deliverSlices, deliveryTail)
	if opSl.nTail == 0 || dlSl.nTail == 0 {
		return res, fmt.Errorf("no slice holds enough samples for its tail quantile (ops: %d slices, matches: %d slices)", len(r.slices), len(m.deliverSlices))
	}
	set("ops_per_s", "1/s", opSl.rate)
	set("op_p50_us", "us", opSl.p50/1e3)
	set("op_p99_us", "us", opSl.tail/1e3)
	set("match_delivery_p50_us", "us", dlSl.p50/1e3)
	set("match_delivery_p90_us", "us", dlSl.tail/1e3)
	rep.add("ops=%d failed=%d publishes=%d registers=%d episodes=%d timed wall=%.3fs whole-run rate=%.1f/s",
		r.ops, r.failed, r.publishes, r.register.n, m.episodes, m.cost.wall.Seconds(), ops/m.cost.wall.Seconds())
	rep.add("slice medians: ops_per_s=%.1f over %d slices; op p50=%.3fus over %d, p99=%.3fus over %d slices",
		opSl.rate, opSl.nrate, opSl.p50/1e3, opSl.n50, opSl.tail/1e3, opSl.nTail)
	rep.add("slice medians: match delivery p50=%.3fus over %d, p90=%.3fus over %d slices",
		dlSl.p50/1e3, dlSl.n50, dlSl.tail/1e3, dlSl.nTail)
	rep.add("slice values: %s", sliceValues(r.slices))
	rep.add("whole-run percentiles:")
	for _, p := range []struct {
		name string
		h    *hist
		q    float64
	}{
		{"op_p50_us", &r.op, 0.5},
		{"op_p99_us", &r.op, 0.99},
		{"match_delivery_p50_us", &m.deliver, 0.5},
		{"match_delivery_p90_us", &m.deliver, 0.9},
		{"match_delivery_p99_us", &m.deliver, 0.99},
		{"match_delivery_p99.5_us", &m.deliver, 0.995},
	} {
		_, line, err := p.h.percentile(p.name, p.q)
		if err != nil {
			return res, err
		}
		rep.add("  %s", line)
	}
	// Per-op-kind percentiles, for the report only: not every workload
	// registers.
	for _, p := range []struct {
		name string
		h    *hist
	}{{"publish", &r.publish}, {"register", &r.register}} {
		for _, q := range []float64{0.5, 0.99} {
			if _, line, err := p.h.percentile(fmt.Sprintf("%s_p%g_us", p.name, q*100), q); err == nil {
				rep.add("  %s", line)
			}
		}
	}
	set("cpu_us_per_op", "us", float64(m.cost.cpu.Microseconds())/ops)
	set("allocs_per_op", "1", float64(m.cost.mallocs)/ops)
	set("live_heap_mb", "MiB", m.heapMB)
	rep.add("matches: inline=%d expected=%d read=%d", r.inline, r.expected, m.read)
	return res, nil
}

// perLayer turns an untraced and a traced measurement of the same workload
// into the per-layer metrics. Counts and runtime figures come from the
// untraced run; timings and per-type call counts from the traced one;
// single-layer costs from the replay on the traced run's last session.
func perLayer(w *workloadDef, u, t *measurement, rep *report) (result, error) {
	res := result{
		Attempted: u.rec.ops + t.rec.ops,
		Failed:    u.rec.failed + t.rec.failed,
		Metrics:   map[string]metric{},
	}
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail("per-layer metric %s is not a number", name)
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	uops := float64(u.rec.ops)
	tops := float64(t.rec.ops)
	upub := float64(u.rec.publishes)

	// overlay.client
	set("client.probes_per_publish", "count", float64(u.rec.probes)/upub)
	set("client.miss_share", "1", float64(u.rec.misses)/upub)

	// overlay.transport and overlay.node, from the decorator.
	tr := t.tracing.t
	for _, tt := range traceTypes {
		calls := tr.stat(tt.wire).calls
		if tt.wire == overlay.TypeAcceptObject {
			calls += tr.types[registerType].calls
		}
		set("transport."+tt.short+".calls_per_op", "count", float64(calls)/tops)
	}
	// Timings only for the types every workload calls in its timed phase;
	// the report prints the others where they occur.
	for _, tt := range []struct{ short, wire string }{
		{"accept_object", overlay.TypeAcceptObject},
		{"match", overlay.TypeMatch},
	} {
		st := tr.stat(tt.wire)
		p50, _, err := st.call.percentile("call", 0.5)
		if err != nil {
			return res, fmt.Errorf("transport.%s: %w", tt.short, err)
		}
		set("transport."+tt.short+".call_p50_us", "us", p50)
		set("transport."+tt.short+".self_us", "us", (st.call.mean()-st.handler.mean())/1e3)
		for _, q := range []float64{0.5, 0.99} {
			v, _, err := st.handler.percentile("handler", q)
			if err != nil {
				return res, fmt.Errorf("node.%s: %w", tt.short, err)
			}
			set(fmt.Sprintf("node.%s.handler_p%g_us", tt.short, q*100), "us", v)
		}
	}
	for _, typ := range tr.sortedTypes() {
		st := tr.stat(typ)
		rep.add("%-26s calls=%-8d call mean=%.3fus p50=%.3fus handler mean=%.3fus req bytes=%d",
			typ, st.calls, st.call.mean()/1e3, st.call.quantile(0.5)/1e3, st.handler.mean()/1e3, st.reqBytes)
	}
	set("transport.frames_per_op", "count", float64(u.stats.FramesOut)/uops)
	set("transport.bytes_per_op", "B", float64(u.stats.BytesOut)/uops)
	set("transport.retries", "count", float64(u.stats.Retries+t.stats.Retries))
	set("transport.timeouts", "count", float64(u.stats.Timeouts+t.stats.Timeouts))
	set("transport.shed", "count", float64(u.stats.Shed+t.stats.Shed))
	set("node.replicate_bytes_per_op", "B", float64(tr.stat(overlay.TypeReplicateKeyGroup).reqBytes)/tops)
	obs := t.tracing.o
	deliver := obs.stage(overlay.TraceStageDeliver)
	set("node.deliver_p99_us", "us", deliver.quantile(0.99))
	set("node.deliver_queue_p99_us", "us", obs.queue.quantile(0.99))
	rep.add("deliver stage samples=%d, queue samples=%d (whole µs, as nodes report them)", deliver.n, obs.queue.n)
	set("node.match_drops", "count", float64(u.drops.match+t.drops.match))
	set("node.transfer_drops", "count", float64(u.drops.transfer+t.drops.transfer))
	set("node.orphan_drops", "count", float64(u.drops.orphan+t.drops.orphan))
	set("client.drops", "count", float64(u.drops.client+t.drops.client))

	// core, cq and wire: replay plus counters.
	rp, err := replay(t.last)
	if err != nil {
		return res, err
	}
	for _, k := range sortedKeys(rp) {
		unit := "ns"
		if strings.HasSuffix(k, "_allocs") {
			unit = "count"
		}
		set(k, unit, rp[k])
	}
	set("core.snapshot_swaps_per_kop", "count", float64(u.swaps)/uops*1e3)
	set("core.lock_waits_per_kop", "count", float64(u.waits)/uops*1e3)
	splits, merges := u.last.c.splitsMerges()
	set("core.splits", "count", float64(splits))
	set("core.merges", "count", float64(merges))
	set("trace.route_us", "us", obs.stage(overlay.TraceStageRoute).mean())
	set("trace.match_us", "us", obs.stage(overlay.TraceStageMatch).mean())
	if h := obs.stage(overlay.TraceStageResolve); h.n > 0 {
		rep.add("trace.resolve_us=%.3f (n=%d)", h.mean(), h.n)
	}
	set("cq.matches_per_publish", "count", float64(u.rec.inline)/upub)
	held := 0
	for _, n := range u.last.c.nodes {
		held += n.Engine().Len()
	}
	set("cq.queries_held", "count", float64(held))

	// The waterfall: a traced publish is the client's route lookup, request
	// marshal and reply unmarshal, the transport's own time (call minus
	// handler), and the ACCEPT_OBJECT handler (which holds the server-side
	// codec, accept, match and any inline push). What is left is printed.
	pubNs := t.rec.publish.mean()
	acc := tr.stat(overlay.TypeAcceptObject)
	selfNs := acc.call.mean() - acc.handler.mean()
	handlerNs := acc.handler.mean()
	probes := float64(t.rec.probes) / float64(t.rec.publishes)
	residual := pubNs - rp["core.route_ns"] - rp["wire.accept_object.marshal_ns"] - rp["wire.accept_reply.unmarshal_ns"] - (selfNs+handlerNs)*probes
	set("trace.publish_ns", "ns", pubNs)
	set("residual_ns_per_publish", "ns", residual)
	rep.add("waterfall per traced publish (ns): route=%.1f marshal=%.1f unmarshal_reply=%.1f (transport_self=%.1f + handler=%.1f) x %.3f probes, residual=%.1f, total=%.1f",
		rp["core.route_ns"], rp["wire.accept_object.marshal_ns"], rp["wire.accept_reply.unmarshal_ns"],
		selfNs, handlerNs, probes, residual, pubNs)

	// runtime, from the untraced run.
	set("runtime.gc_cpu_share", "1", u.cost.gcCPU/u.cost.cpu.Seconds())
	set("runtime.gc_cycles_per_kop", "count", float64(u.cost.gcCycles)/uops*1e3)
	set("runtime.sched_latency_p99_us", "us", u.cost.schedP99())

	uRate := uops / u.cost.wall.Seconds()
	tRate := float64(t.rec.ops) / t.cost.wall.Seconds()
	set("trace.overhead_pct", "%", (uRate-tRate)/uRate*100)
	rep.add("%s untraced %.0f ops/s, traced %.0f ops/s", w.name, uRate, tRate)
	return res, nil
}

// sliceSummary holds the medians over a run's slices: of the slice p50
// over slices of at least 100 samples, of the slice tail quantile over
// slices holding at least ten samples beyond it, and of the slice rate,
// with the number of slices behind each.
type sliceSummary struct {
	p50, tail, rate   float64
	n50, nTail, nrate int
}

func summarize(stats []sliceStat, tail float64) sliceSummary {
	minTail := uint64(math.Ceil(10 / (1 - tail)))
	var p50s, tails, rates []float64
	type slot struct {
		n   uint64
		dur time.Duration
	}
	byIdx := map[int]*slot{}
	for _, st := range stats {
		if st.n >= 100 {
			p50s = append(p50s, st.p50)
		}
		if st.n >= minTail {
			tails = append(tails, st.tail)
		}
		sl := byIdx[st.idx]
		if sl == nil {
			sl = &slot{dur: st.dur}
			byIdx[st.idx] = sl
		}
		sl.n += st.n
	}
	for _, sl := range byIdx {
		rates = append(rates, float64(sl.n)/sl.dur.Seconds())
	}
	var out sliceSummary
	out.n50, out.nTail, out.nrate = len(p50s), len(tails), len(rates)
	if len(p50s) > 0 {
		out.p50 = median(p50s)
	}
	if len(tails) > 0 {
		out.tail = median(tails)
	}
	if len(rates) > 0 {
		out.rate = median(rates)
	}
	return out
}

// sliceValues renders each slice's index, rate, p50 and tail quantile (µs)
// for the report.
func sliceValues(stats []sliceStat) string {
	var b strings.Builder
	for _, st := range stats {
		fmt.Fprintf(&b, " %d:%.0f/%.3f/%.3f", st.idx, float64(st.n)/st.dur.Seconds(), st.p50/1e3, st.tail/1e3)
	}
	return b.String()
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
