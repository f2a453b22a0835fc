// Command clashload drives synthetic workload traffic (internal/workload
// A/B/C) against a CLASH overlay from many concurrent connections and reports
// throughput and latency percentiles.
//
// Against a running overlay (see cmd/clashd):
//
//	clashload -connect 127.0.0.1:7001 -conns 8 -packets 100000 -workload B
//
// Self-contained smoke mode — boot an N-node overlay on the in-memory
// transport inside this process and drive it (used by CI):
//
//	clashload -inproc 3 -packets 10000 -workload B
//
// -seed sets the root PRNG seed threaded through every workload generator
// clone and the in-process nodes' maintenance jitter, so two inproc runs with
// the same seed behave identically. -latency/-loss put a network link model
// (internal/sim/link) under the in-memory fabric, so inproc smoke runs stop
// being a zero-RTT fantasy.
//
// With -batch N every worker ships its packets in N-object ACCEPT_BATCH
// frames through Client.PublishBatch instead of one frame per packet.
//
// Call latency is recorded in an HDR-style bucketed histogram
// (metrics.Histogram — no per-call allocation), so the reported p50/p95/p99
// stay exact-shaped at millions of packets. Every connection draws keys from
// its own workload.KeyGenerator clone, so the sources are independent
// streams rather than one shared PRNG. It exits non-zero when publishes fail.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/cq"
	"clash/internal/hub"
	"clash/internal/load"
	"clash/internal/metrics"
	"clash/internal/overlay"
	"clash/internal/sim/link"
	"clash/internal/workload"
)

func main() {
	var (
		seedAddrs = flag.String("connect", "", "comma-separated overlay node addresses to connect to")
		inproc    = flag.Int("inproc", 0, "boot an N-node in-process overlay instead of connecting out")
		conns     = flag.Int("conns", 8, "concurrent connections (each with its own key-generator clone)")
		packets   = flag.Int("packets", 10000, "total data packets to publish")
		batch     = flag.Int("batch", 0, "publish in N-packet ACCEPT_BATCH frames (0 = one frame per packet)")
		queries   = flag.Int("queries", 16, "continuous queries to register before driving traffic")
		kindFlag  = flag.String("workload", "B", "workload kind: A, B or C")
		keyBits   = flag.Int("keybits", workload.DefaultKeyBits, "identifier key length N")
		capacity  = flag.Float64("capacity", 5000, "per-node capacity (inproc mode)")
		streamLen = flag.Float64("stream-len", 0, "mean virtual-stream length Ld in packets (0 = the paper's 1000)")
		latency   = flag.Duration("latency", 0, "mean one-way link latency injected under -inproc (0 disables)")
		loss      = flag.Float64("loss", 0, "per-message loss probability injected under -inproc")
		replicas  = flag.Int("replicas", 0, "key-group replication factor under -inproc (0 = default 2, negative disables)")
		randSeed  = flag.Int64("seed", 1, "root PRNG seed: workload generator clones + inproc maintenance jitter")
		metricsAd = flag.String("metrics-addr", "", "serve the driver's Prometheus metrics at this HTTP address during the run")
		traceEv   = flag.Int("trace-every", 0, "sample every Nth published packet with a request trace (0 disables)")
		dialTO    = flag.Duration("dial-timeout", 0, "TCP connect timeout for outbound connections (0 = default 3s; TCP mode only)")
		callTO    = flag.Duration("call-timeout", 0, "per-call reply deadline (0 = default 10s; TCP mode only)")
		idleTO    = flag.Duration("idle-timeout", 0, "idle time before pooled connections close (0 = default 5m; TCP mode only)")
	)
	flag.Parse()
	tcpCfg := overlay.TCPConfig{DialTimeout: *dialTO, CallTimeout: *callTO, IdleTimeout: *idleTO}
	if err := run(*seedAddrs, *inproc, *conns, *packets, *batch, *queries, *kindFlag, *keyBits, *capacity, *streamLen, *latency, *loss, *replicas, *randSeed, *metricsAd, *traceEv, tcpCfg); err != nil {
		fmt.Fprintln(os.Stderr, "clashload:", err)
		os.Exit(1)
	}
}

func parseKind(s string) (workload.Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "A":
		return workload.WorkloadA, nil
	case "B":
		return workload.WorkloadB, nil
	case "C":
		return workload.WorkloadC, nil
	default:
		return 0, fmt.Errorf("unknown workload %q (want A, B or C)", s)
	}
}

func run(seedAddrs string, inproc, conns, packets, batch, queries int, kindFlag string, keyBits int, capacity, streamLen float64, latency time.Duration, loss float64, replicas int, randSeed int64, metricsAddr string, traceEvery int, tcpCfg overlay.TCPConfig) error {
	kind, err := parseKind(kindFlag)
	if err != nil {
		return err
	}
	spec := workload.SpecFor(kind)
	spec.KeyBits = keyBits
	if spec.BaseBits >= keyBits {
		spec.BaseBits = keyBits / 2
	}
	if streamLen > 0 {
		spec.MeanStreamLen = streamLen
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if conns < 1 {
		conns = 1
	}
	if (latency > 0 || loss > 0) && inproc <= 0 {
		return fmt.Errorf("-latency/-loss model the in-memory fabric and need -inproc N")
	}

	if batch < 0 {
		batch = 0
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		clientTr overlay.Transport
		seeds    []string
		nodes    []*overlay.Node
	)
	space := chord.DefaultSpace()
	if inproc > 0 {
		netw := overlay.NewMemNetwork()
		nodes, err = bootInproc(ctx, netw, inproc, keyBits, space, capacity, randSeed, replicas)
		if err != nil {
			return err
		}
		// Engage the link model after boot (the measurement run starts from
		// a converged overlay; the simulator does the same).
		if latency > 0 || loss > 0 {
			if err := netw.SetLink(link.WAN(latency, loss), rand.New(rand.NewSource(randSeed))); err != nil {
				return err
			}
		}
		for _, n := range nodes {
			seeds = append(seeds, n.Addr())
		}
		clientTr = netw.Endpoint("clashload-client")
	} else {
		seeds = strings.Split(seedAddrs, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		if len(seeds) == 0 || seeds[0] == "" {
			return fmt.Errorf("need -connect addresses or -inproc N")
		}
		clientTr, err = overlay.ListenTCPConfig("127.0.0.1:0", tcpCfg)
		if err != nil {
			return err
		}
	}

	client, err := overlay.NewClient(clientTr, keyBits, space, seeds...)
	if err != nil {
		return err
	}
	defer client.Close()

	// Observability: -metrics-addr serves the driver's own registry (client
	// transport counters plus, under -trace-every, the per-stage trace
	// histograms); -trace-every stamps every Nth publish with a trace id. In
	// inproc mode the trace store doubles as the nodes' observer, so the
	// server-side stage timings land in this process; in TCP mode they land
	// on the serving nodes' hubs instead.
	reg := metrics.NewRegistry()
	if metricsAddr != "" {
		frames := reg.CounterVec("clashload_transport_frames_total", "Client wire frames by direction.", "dir")
		bytes := reg.CounterVec("clashload_transport_bytes_total", "Client wire bytes by direction.", "dir")
		inFlight := reg.Gauge("clashload_transport_in_flight", "Client calls awaiting a reply.")
		reg.OnCollect(func() {
			ts := clientTr.Stats()
			frames.With("in").Set(ts.FramesIn)
			frames.With("out").Set(ts.FramesOut)
			bytes.With("in").Set(ts.BytesIn)
			bytes.With("out").Set(ts.BytesOut)
			inFlight.Set(float64(ts.InFlight))
		})
		msrv := &http.Server{Addr: metricsAddr, Handler: reg, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "clashload: metrics server:", err)
			}
		}()
		defer msrv.Close()
		fmt.Printf("clashload: metrics at http://%s/metrics\n", metricsAddr)
	}
	var traces *hub.Traces
	if traceEvery > 0 {
		client.SetTraceEvery(traceEvery)
		traces = hub.NewTraces(reg)
		for _, n := range nodes {
			n.SetObserver(traces)
		}
	}

	// Count pushed match notifications in the background.
	var pushed int64
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-client.Matches():
				atomic.AddInt64(&pushed, 1)
			}
		}
	}()

	// Register continuous queries over skew-weighted base regions.
	qgen, err := workload.NewKeyGenerator(spec, rand.New(rand.NewSource(randSeed)))
	if err != nil {
		return err
	}
	registered := 0
	for i := 0; i < queries; i++ {
		region := bitkey.NewGroup(bitkey.Key{Value: uint64(qgen.NextBase()), Bits: spec.BaseBits})
		q := cq.Query{
			ID:         fmt.Sprintf("q-%d", i),
			Region:     region,
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		if _, err := client.Register(q); err == nil {
			registered++
		}
	}

	// Drive the packets from conns independent workers, each with its own
	// generator clone (per-source PRNG streams) and its own latency
	// histogram (merged at the end; Record never allocates).
	type workerResult struct {
		hist    *metrics.Histogram
		ok      int
		errs    int
		probes  int
		matches int64
	}
	results := make([]workerResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		per := packets / conns
		if w < packets%conns {
			per++
		}
		wg.Add(1)
		go func(w, per int) {
			defer wg.Done()
			gen := qgen.Clone(randSeed + int64(w) + 1)
			attrRng := rand.New(rand.NewSource(randSeed + int64(w) + 1000))
			res := &results[w]
			res.hist = metrics.NewHistogram()
			var key bitkey.Key
			streamLeft := 0
			var pending []overlay.BatchItem
			flush := func() {
				if len(pending) == 0 {
					return
				}
				t0 := time.Now()
				prs, errs := client.PublishBatch(pending)
				// One histogram sample per batch frame: the latency a
				// batched producer observes per flush.
				res.hist.Record(time.Since(t0).Microseconds())
				for i := range pending {
					if errs[i] != nil {
						res.errs++
						continue
					}
					res.ok++
					res.probes += prs[i].Probes
					res.matches += int64(len(prs[i].Matches))
				}
				pending = pending[:0]
			}
			for i := 0; i < per; i++ {
				if streamLeft == 0 {
					key = gen.Next()
					streamLeft = gen.NextStreamLength()
				}
				streamLeft--
				attrs := map[string]float64{"speed": attrRng.Float64() * 100}
				if batch > 0 {
					pending = append(pending, overlay.BatchItem{Key: key, Attrs: attrs})
					if len(pending) >= batch {
						flush()
					}
					continue
				}
				t0 := time.Now()
				pr, err := client.Publish(key, attrs, nil)
				if err != nil {
					res.errs++
					continue
				}
				res.hist.Record(time.Since(t0).Microseconds())
				res.ok++
				res.probes += pr.Probes
				res.matches += int64(len(pr.Matches))
			}
			flush()
		}(w, per)
	}
	wg.Wait()
	elapsed := time.Since(start)

	hist := metrics.NewHistogram()
	agg := workerResult{}
	for i := range results {
		r := &results[i]
		hist.Merge(r.hist)
		agg.ok += r.ok
		agg.errs += r.errs
		agg.probes += r.probes
		agg.matches += r.matches
	}
	// Async match pushes may still be in flight: wait, bounded, until every
	// match the publishes reported has reached the client or been dropped
	// by it.
	for deadline := time.Now().Add(5 * time.Second); atomic.LoadInt64(&pushed)+client.Drops() < agg.matches && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	elapsedS := elapsed.Seconds()
	var throughput, probesPerPacket float64
	if elapsedS > 0 {
		throughput = float64(agg.ok) / elapsedS
	}
	if agg.ok > 0 {
		probesPerPacket = float64(agg.probes) / float64(agg.ok)
	}
	lat := hist.Summary()

	batchNote := ""
	if batch > 0 {
		batchNote = fmt.Sprintf(", batch %d", batch)
	}
	fmt.Printf("clashload: workload %s, %d conns, %d packets%s (%d queries registered)\n",
		kind, conns, packets, batchNote, registered)
	fmt.Printf("  ok=%d errors=%d elapsed=%.2fs throughput=%.0f pkt/s\n",
		agg.ok, agg.errs, elapsedS, throughput)
	fmt.Printf("  latency µs: p50=%.0f p95=%.0f p99=%.0f max=%.0f (mean %.0f)\n",
		lat.P50, lat.P95, lat.P99, lat.Max, lat.Mean)
	fmt.Printf("  probes/packet=%.3f matches inline=%d pushed=%d (dropped %d)\n",
		probesPerPacket, agg.matches, atomic.LoadInt64(&pushed), client.Drops())
	ts := clientTr.Stats()
	fmt.Printf("  transport: frames in=%d out=%d bytes in=%d out=%d in-flight=%d reconnects=%d oversized=%d\n",
		ts.FramesIn, ts.FramesOut, ts.BytesIn, ts.BytesOut, ts.InFlight, ts.Reconnects, ts.OversizedDrops)
	fmt.Printf("  resilience: timeouts=%d retries=%d shed=%d\n", ts.Timeouts, ts.Retries, ts.Shed)
	if agg.ok > 0 {
		// The client's own sockets; 0 on the in-memory fabric. Reads count
		// only those that returned bytes (see TransportStats.SocketReads).
		fmt.Printf("  syscalls/packet: reads=%.3f writes=%.3f\n",
			float64(ts.SocketReads)/float64(agg.ok), float64(ts.SocketWrites)/float64(agg.ok))
	}
	if traces != nil {
		if stages := traces.StageSummaries(); len(stages) > 0 {
			var parts []string
			for _, st := range []string{overlay.TraceStageRoute, overlay.TraceStageResolve, overlay.TraceStageMatch, overlay.TraceStageDeliver} {
				if s, ok := stages[st]; ok {
					parts = append(parts, fmt.Sprintf("%s p50=%.0f p99=%.0f n=%d", st, s.P50, s.P99, s.Count))
				}
			}
			fmt.Printf("  trace stages µs: %s (%d records)\n", strings.Join(parts, " | "), traces.Count())
		} else if inproc <= 0 {
			fmt.Printf("  trace stages: recorded on the serving nodes' hubs (/traces/sample)\n")
		}
	}
	for _, n := range nodes {
		st := n.Status()
		fmt.Printf("  node %s: groups=%d splits=%d merges=%d accepted=%d released=%d\n",
			st.Addr, len(st.ActiveGroups), st.Counters.Splits, st.Counters.Merges,
			st.Counters.GroupsAccepted, st.Counters.GroupsReleased)
	}

	cancel()
	for _, n := range nodes {
		_ = n.Close()
	}

	// Fail loudly so CI smoke runs go red when the overlay stops serving.
	// With loss injected into the inproc fabric some failures are the point
	// of the exercise, but only in rough proportion to the injected loss —
	// a generous 20x-expectation bound keeps the gate meaningful against
	// unrelated regressions.
	if agg.ok == 0 {
		return fmt.Errorf("no packet was delivered (%d errors)", agg.errs)
	}
	allowedErrs := 0
	if inproc > 0 && loss > 0 {
		// Each publish crosses the link at least twice (request + reply).
		allowedErrs = int(20*loss*2*float64(packets)) + 10
	}
	if agg.errs > allowedErrs {
		return fmt.Errorf("%d of %d publishes failed (allowed %d at loss %g)",
			agg.errs, packets, allowedErrs, loss)
	}
	return nil
}

// bootInproc builds an N-node overlay on the in-memory fabric: node 0
// bootstraps the initial partition, the rest join, the ring is converged with
// explicit maintenance rounds, and every node's Run loop is started.
func bootInproc(ctx context.Context, netw *overlay.MemNetwork, n, keyBits int, space chord.Space, capacity float64, seed int64, replicas int) ([]*overlay.Node, error) {
	cfg := overlay.Config{
		KeyBits:           keyBits,
		Space:             space,
		Model:             load.DefaultModel(capacity),
		BootstrapDepth:    2,
		StabilizeInterval: 50 * time.Millisecond,
		LoadCheckInterval: 500 * time.Millisecond,
		Seed:              seed,
		ReplicationFactor: replicas,
	}
	nodes := make([]*overlay.Node, n)
	for i := range nodes {
		node, err := overlay.NewNode(netw.Endpoint(fmt.Sprintf("mem-node-%d", i)), cfg)
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	if err := nodes[0].BootstrapRoots(); err != nil {
		return nil, err
	}
	for _, node := range nodes[1:] {
		if err := node.Join(nodes[0].Addr()); err != nil {
			return nil, err
		}
	}
	// Converge the ring before traffic: enough Tick rounds for fingers and
	// successor lists, then two load checks to distribute the root groups.
	for r := 0; r < 3*space.Bits; r++ {
		for _, node := range nodes {
			node.Tick()
		}
	}
	for i := 0; i < 2; i++ {
		now := time.Now()
		for _, node := range nodes {
			node.LoadCheck(now)
		}
	}
	for _, node := range nodes {
		go node.Run(ctx)
	}
	return nodes, nil
}
