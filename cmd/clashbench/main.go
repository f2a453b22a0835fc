// Command clashbench runs a synthetic routing workload through the CLASH hot
// paths — client cache Route, Server Work Table lookup, continuous-query
// matching and DHT ring lookup — and writes a machine-readable snapshot
// (BENCH_routing.json by default) so every perf PR has a trajectory to beat.
//
// The trie-backed paths are benchmarked side by side with the frozen pre-trie
// map-probing baselines (core.LegacyRouter, core.LegacyTable); the snapshot
// records the resulting speedups.
//
// Usage:
//
//	go run ./cmd/clashbench -keys 1000000 -groups 1000 -out BENCH_routing.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clash/internal/benchutil"
	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/metrics"
)

type config struct {
	KeyBits     int `json:"key_bits"`
	Groups      int `json:"groups"`
	Keys        int `json:"keys"`
	Queries     int `json:"queries"`
	RingMembers int `json:"ring_members"`
	RingVnodes  int `json:"ring_vnodes"`
	MaxProcs    int `json:"go_max_procs"`
	NumCPU      int `json:"num_cpu"`
}

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

type snapshot struct {
	Config     config             `json:"config"`
	GoVersion  string             `json:"go_version"`
	Benchmarks []result           `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
	Scaling    *scalingCurve      `json:"scaling,omitempty"`
}

// scalingPoint is one core count's measurement of the parallel ACCEPT_OBJECT
// hot path (publishes against the server's lock-free routing snapshot).
type scalingPoint struct {
	Cores         int     `json:"cores"`
	ThroughputPPS float64 `json:"throughput_pps"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	P99US         float64 `json:"p99_us"`
	SpeedupVs1    float64 `json:"speedup_vs_1core,omitempty"`
}

type scalingCurve struct {
	NumCPU     int            `json:"num_cpu"`
	MaxProcs   int            `json:"go_max_procs"`
	DurationMS int            `json:"duration_ms"`
	Points     []scalingPoint `json:"points"`
}

// parseCores parses a comma-separated core list ("1,2,4,8"). An empty spec
// derives the curve from the machine: powers of two up to NumCPU.
func parseCores(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		var cores []int
		for c := 1; c <= runtime.NumCPU(); c *= 2 {
			cores = append(cores, c)
		}
		return cores, nil
	}
	var cores []int
	for _, part := range strings.Split(spec, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad -cores entry %q", part)
		}
		cores = append(cores, c)
	}
	return cores, nil
}

// measureAccept drives the ACCEPT_OBJECT path from `cores` goroutines (with
// GOMAXPROCS pinned to match) for roughly the given duration and reports
// throughput, per-op cost, allocation rate and sampled p99 latency.
func measureAccept(srv *core.Server, keys []bitkey.Key, depths []int, cores int, dur time.Duration) scalingPoint {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)

	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		ops   = make([]int64, cores)
		hists = make([]*metrics.LatencyHist, cores)
	)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for w := 0; w < cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hist := metrics.NewLatencyHist()
			hists[w] = hist
			// Workers start on disjoint key offsets so they fan out across
			// the counter cells instead of marching in step.
			i := w * (len(keys) / cores)
			var n int64
			for !stop.Load() {
				// One latency sample per 64-op block (the block's mean per-op
				// cost, recorded in nanoseconds): sampling keeps the timer
				// calls off the measured fast path.
				t0 := time.Now()
				for j := 0; j < 64; j++ {
					k := keys[i%len(keys)]
					_, _ = srv.HandleAcceptObject(k, depths[i%len(depths)])
					i++
				}
				hist.Record(time.Since(t0).Nanoseconds() / 64)
				n += 64
			}
			ops[w] = n
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	var total int64
	hist := metrics.NewLatencyHist()
	for w := 0; w < cores; w++ {
		total += ops[w]
		hist.Merge(hists[w])
	}
	pt := scalingPoint{Cores: cores}
	if total > 0 && elapsed > 0 {
		pt.ThroughputPPS = float64(total) / elapsed.Seconds()
		pt.NsPerOp = elapsed.Seconds() * 1e9 / float64(total)
		pt.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(total)
		pt.P99US = hist.Summary().P99 / 1e3 // samples are ns/op
	}
	return pt
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("clashbench: ")
	var (
		keys    = flag.Int("keys", 1_000_000, "number of identifier keys in the synthetic workload")
		groups  = flag.Int("groups", 1000, "number of cached key groups (prefix-free partition)")
		keyBits = flag.Int("keybits", bitkey.MaxBits, "identifier key length N")
		queries = flag.Int("queries", 1000, "number of registered continuous queries")
		members = flag.Int("members", 64, "DHT ring members")
		vnodes  = flag.Int("vnodes", 4, "virtual servers per ring member")
		out     = flag.String("out", "BENCH_routing.json", "output snapshot path")
		seed    = flag.Int64("seed", 1, "workload PRNG seed")
		cores   = flag.String("cores", "", "comma-separated GOMAXPROCS values for the multi-core scaling curve (default: powers of two up to NumCPU)")
		scalDur = flag.Duration("scaledur", 500*time.Millisecond, "measurement window per scaling point")
		gateSc  = flag.Float64("gate-scale", 0, "fail unless 4-core throughput >= this multiple of 1-core (0 disables; skipped below 4 CPUs)")
		gateFl  = flag.Float64("gate-floor", 0, "fail unless the best scaling point reaches this many publishes/s (0 disables)")
	)
	flag.Parse()

	cfg := config{
		KeyBits:     *keyBits,
		Groups:      *groups,
		Keys:        *keys,
		Queries:     *queries,
		RingMembers: *members,
		RingVnodes:  *vnodes,
		MaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	log.Printf("workload: %d keys, %d groups, %d-bit key space", cfg.Keys, cfg.Groups, cfg.KeyBits)

	rng := rand.New(rand.NewSource(*seed))
	partition := benchutil.PrefixFreeGroups(rng, cfg.KeyBits, cfg.Groups)
	workload := benchutil.RandomKeys(rng, cfg.KeyBits, cfg.Keys)

	snap := snapshot{Config: cfg, GoVersion: runtime.Version(), Speedups: map[string]float64{}}
	run := func(name string, fn func(b *testing.B)) result {
		r := testing.Benchmark(fn)
		res := result{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		log.Printf("%-28s %12.1f ns/op %6d allocs/op %10d iters", name, res.NsPerOp, res.AllocsPerOp, res.Iterations)
		snap.Benchmarks = append(snap.Benchmarks, res)
		return res
	}
	speedup := func(metric string, legacy, trie result) {
		if trie.NsPerOp > 0 {
			snap.Speedups[metric] = legacy.NsPerOp / trie.NsPerOp
		}
	}

	// Client cache: trie router vs. legacy per-depth map probing.
	router := core.NewRouter(cfg.KeyBits)
	legacyRouter := core.NewLegacyRouter(cfg.KeyBits)
	for i, g := range partition {
		id := core.ServerID(fmt.Sprintf("s%03d", i%257))
		router.Learn(g, id)
		legacyRouter.Learn(g, id)
	}
	routeTrie := run("route/trie", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			router.Route(workload[i%len(workload)])
		}
	})
	routeLegacy := run("route/legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyRouter.Route(workload[i%len(workload)])
		}
	})
	speedup("route", routeLegacy, routeTrie)

	// Server Work Table: trie-backed lookup (through the server's read
	// snapshot, as in production) vs. the legacy map probing.
	server, err := core.NewServer("bench", cfg.KeyBits)
	if err != nil {
		log.Fatal(err)
	}
	legacyTable := core.NewLegacyTable(cfg.KeyBits)
	for _, g := range partition {
		if err := server.HandleAcceptKeyGroup(g, "seed"); err != nil {
			log.Fatal(err)
		}
		legacyTable.Put(&core.Entry{Group: g, Active: true})
	}
	tableTrie := run("active_entry_for/trie", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			server.ManagesKey(workload[i%len(workload)])
		}
	})
	tableLegacy := run("active_entry_for/legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyTable.ActiveEntryFor(workload[i%len(workload)])
		}
	})
	speedup("active_entry_for", tableLegacy, tableTrie)

	// Continuous-query matching over a trie region index.
	engine, err := cq.NewEngine(cfg.KeyBits)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < cfg.Queries; i++ {
		q := cq.Query{
			ID:         fmt.Sprintf("q%05d", i),
			Region:     partition[i%len(partition)],
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGe, Value: 30}},
		}
		if err := engine.Register(q); err != nil {
			log.Fatal(err)
		}
	}
	events := make([]cq.Event, 1<<14)
	for i := range events {
		events[i] = cq.Event{
			Key:   workload[rng.Intn(len(workload))],
			Attrs: map[string]float64{"speed": float64(rng.Intn(60))},
		}
	}
	run("cq_match/trie", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.Match(events[i%len(events)])
		}
	})

	// DHT ring lookup with cached vnode start points.
	ring := chord.NewRing(chord.WithVirtualServers(cfg.RingVnodes))
	ringMembers := make([]chord.Member, cfg.RingMembers)
	for i := range ringMembers {
		ringMembers[i] = chord.Member(fmt.Sprintf("server-%03d", i))
		if err := ring.Add(ringMembers[i]); err != nil {
			log.Fatal(err)
		}
	}
	targets := make([]chord.ID, 1<<12)
	for i := range targets {
		targets[i] = ring.Space().Wrap(rng.Uint64())
	}
	run("ring_lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ring.Lookup(ringMembers[i%len(ringMembers)], targets[i%len(targets)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Multi-core scaling curve: the parallel ACCEPT_OBJECT hot path against
	// the server's lock-free routing snapshot, one point per core count.
	coreList, err := parseCores(*cores)
	if err != nil {
		log.Fatal(err)
	}
	// Per-key correct depth: the depth of the active group covering the key,
	// so the measured path is the case-(a) OK branch.
	depths := make([]int, len(workload))
	for i, k := range workload {
		if g, ok := server.ManagesKey(k); ok {
			depths[i] = g.Prefix.Bits
		}
	}
	curve := &scalingCurve{
		NumCPU:     cfg.NumCPU,
		MaxProcs:   cfg.MaxProcs,
		DurationMS: int(scalDur.Milliseconds()),
	}
	for _, c := range coreList {
		pt := measureAccept(server, workload, depths, c, *scalDur)
		if len(curve.Points) > 0 && curve.Points[0].Cores == 1 && curve.Points[0].ThroughputPPS > 0 {
			pt.SpeedupVs1 = pt.ThroughputPPS / curve.Points[0].ThroughputPPS
		}
		curve.Points = append(curve.Points, pt)
		log.Printf("scaling/%d-core %14.0f pkt/s %8.1f ns/op %6.3f allocs/op p99 %.1fµs",
			pt.Cores, pt.ThroughputPPS, pt.NsPerOp, pt.AllocsPerOp, pt.P99US)
	}
	snap.Scaling = curve

	if *gateFl > 0 {
		best := 0.0
		for _, pt := range curve.Points {
			if pt.ThroughputPPS > best {
				best = pt.ThroughputPPS
			}
		}
		if best < *gateFl {
			log.Fatalf("scaling gate: best throughput %.0f pkt/s below floor %.0f", best, *gateFl)
		}
	}
	if *gateSc > 0 {
		var one, four float64
		for _, pt := range curve.Points {
			switch pt.Cores {
			case 1:
				one = pt.ThroughputPPS
			case 4:
				four = pt.ThroughputPPS
			}
		}
		switch {
		case cfg.NumCPU < 4:
			log.Printf("scaling gate: ratio check skipped (%d CPUs < 4)", cfg.NumCPU)
		case one == 0 || four == 0:
			log.Printf("scaling gate: ratio check skipped (-cores lacks 1 and 4)")
		case four < *gateSc*one:
			log.Fatalf("scaling gate: 4-core %.0f pkt/s < %.2fx 1-core %.0f", four, *gateSc, one)
		default:
			log.Printf("scaling gate: 4-core is %.2fx 1-core (>= %.2fx required)", four/one, *gateSc)
		}
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (route %.0fx, active_entry_for %.0fx vs legacy)",
		*out, snap.Speedups["route"], snap.Speedups["active_entry_for"])
}
