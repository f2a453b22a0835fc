package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/cq"
	"clash/internal/invariant"
	"clash/internal/load"
	"clash/internal/metrics"
	"clash/internal/overlay"
	"clash/internal/sim/link"
	"clash/internal/workload"
)

// Phase is one traffic segment of a scenario, lasting Ticks load-check
// periods.
type Phase struct {
	// Name labels the phase in the per-tick samples.
	Name string `json:"name"`
	// Ticks is the phase length in load-check periods.
	Ticks int `json:"ticks"`
	// Packets is how many data packets are published per tick.
	Packets int `json:"packets"`
	// HotShare, when positive, routes that fraction of the phase's packets
	// to keys under the fixed HotBase base value instead of drawing them
	// from the workload distribution (the flash-crowd shape).
	HotShare float64 `json:"hot_share,omitempty"`
	// HotBase is the base value hot packets concentrate on.
	HotBase int `json:"hot_base,omitempty"`
}

// ChurnEvent crashes or rejoins nodes at the start of a tick. Crashed nodes
// keep their server state (a process restart with its table intact) and
// re-enter the ring through the bootstrap node when rejoined.
type ChurnEvent struct {
	Tick   int `json:"tick"`
	Crash  int `json:"crash,omitempty"`
	Rejoin int `json:"rejoin,omitempty"`
	// CrashHolderFrac crashes that fraction (rounded up) of the live
	// non-bootstrap nodes currently holding at least one active key group —
	// the durability scenario's way of guaranteeing the crashes actually
	// destroy key-group state rather than hitting idle members.
	CrashHolderFrac float64 `json:"crash_holder_frac,omitempty"`
}

// PartitionSpec splits the fabric in two for a window of ticks: the last
// Fraction of the nodes (by index) lose contact with the rest, then the
// partition heals and the isolated side re-joins through the bootstrap node.
type PartitionSpec struct {
	FromTick int     `json:"from_tick"`
	ToTick   int     `json:"to_tick"`
	Fraction float64 `json:"fraction"`
}

// SlowSpec makes the last Fraction of the nodes (by index, never the
// bootstrap node) gray-slow for the whole run: every message to or from them
// takes Factor times the sampled link latency. Unlike a crash, the nodes
// answer correctly — eventually.
type SlowSpec struct {
	Fraction float64 `json:"fraction"`
	Factor   float64 `json:"factor"`
}

// AsymSpec blackholes one direction for a window of ticks: requests from the
// majority to the last Fraction of the nodes vanish in transit, while the
// minority's requests still reach the majority (only their replies are lost)
// — the classic asymmetric gray partition. On ToTick the direction heals and
// the minority re-joins through the bootstrap node.
type AsymSpec struct {
	FromTick int     `json:"from_tick"`
	ToTick   int     `json:"to_tick"`
	Fraction float64 `json:"fraction"`
}

// Expect declares the invariants a scenario run must satisfy; violations are
// reported in the result (and fail cmd/clashsim).
type Expect struct {
	// MinSplits / MinMerges are lower bounds on load-driven splits and
	// consolidation merges.
	MinSplits int `json:"min_splits,omitempty"`
	MinMerges int `json:"min_merges,omitempty"`
	// AllMatchesDelivered requires every inline continuous-query match to
	// have been push-delivered to its subscriber with zero drops (only
	// meaningful on lossless links).
	AllMatchesDelivered bool `json:"all_matches_delivered,omitempty"`
	// CoverageComplete requires the live nodes' active groups to exactly
	// partition the key space at the end of the run.
	CoverageComplete bool `json:"coverage_complete,omitempty"`
	// RingConverged requires every live node's successor pointer to equal
	// its true ring successor at the end of the run (zero drift).
	RingConverged bool `json:"ring_converged,omitempty"`
	// MaxRingDrift, when positive, allows up to that many live nodes to
	// have a stale successor pointer at the end — the honest steady state
	// of a ring under continuous message loss, where spurious drops and
	// re-adoptions keep a node or two permanently mid-repair.
	MaxRingDrift int `json:"max_ring_drift,omitempty"`
	// ZeroLostCQ requires every continuous query registered at boot to
	// survive the run: each must still be stored on some live node AND a
	// matching probe packet published at the end must report it matched.
	// This is the durability invariant — it fails if crashing a key-group
	// holder lost its query state.
	ZeroLostCQ bool `json:"zero_lost_cq,omitempty"`
	// MinHolderCrashFrac requires the churn schedule to actually have
	// crashed at least this fraction of the group-holding nodes (measured
	// cumulatively against the holder count at the first crash event), so a
	// passing durability run cannot be explained by the crashes missing the
	// state they were meant to destroy.
	MinHolderCrashFrac float64 `json:"min_holder_crash_frac,omitempty"`
	// MaxHealthyTickMs, when positive, bounds the p99 virtual cost (in
	// milliseconds) of a healthy node's maintenance tick — the gray-failure
	// invariant that one slow peer must not wedge everyone else's
	// maintenance for a full legacy call timeout.
	MaxHealthyTickMs float64 `json:"max_healthy_tick_ms,omitempty"`
	// SpansComplete requires every sampled publish's hop spans to form one
	// connected tree rooted at a single ingress span, and at least one trace
	// to have been sampled (set Scenario.TraceEvery). Only meaningful on
	// lossless links — a dropped-and-retried probe legitimately records two
	// ingress spans.
	SpansComplete bool `json:"spans_complete,omitempty"`
	// EventsConsistent cross-checks the nodes' observer event stream against
	// the protocol counters: split events bound the split counter from below
	// (one split event covers one or more table subdivisions) and agree with
	// it on zero-ness, merge events equal the merge counter, and recovery
	// events agree with the recovered-groups counter on zero-ness. Only
	// meaningful on churn-free runs — a crashed node's counters vanish while
	// its events remain counted.
	EventsConsistent bool `json:"events_consistent,omitempty"`
}

// Scenario fully describes one simulated experiment.
type Scenario struct {
	Name           string        `json:"name"`
	Nodes          int           `json:"nodes"`
	Seed           int64         `json:"seed"`
	KeyBits        int           `json:"key_bits"`
	BootstrapDepth int           `json:"bootstrap_depth"`
	Capacity       float64       `json:"capacity_pps"`
	Workload       workload.Kind `json:"-"`
	WorkloadName   string        `json:"workload"`
	CheckEvery     time.Duration `json:"-"`
	CheckEverySec  float64       `json:"check_every_s"`
	StabilizeEvery time.Duration `json:"-"`
	Queries        int           `json:"queries"`
	// Replicas overrides the overlay's key-group replication factor
	// (0 = the overlay default; negative disables replication).
	Replicas int `json:"replicas,omitempty"`
	// TraceEvery samples every Nth delivered object for request tracing
	// (0 disables): sampled publishes carry a trace ID on the wire and every
	// node on their path emits hop spans into the run's span collector.
	TraceEvery int            `json:"trace_every,omitempty"`
	Link       link.Model     `json:"link"`
	Phases     []Phase        `json:"phases"`
	Churn      []ChurnEvent   `json:"churn,omitempty"`
	Partition  *PartitionSpec `json:"partition,omitempty"`
	Slow       *SlowSpec      `json:"slow,omitempty"`
	Asym       *AsymSpec      `json:"asym,omitempty"`
	Expect     Expect         `json:"expect"`
}

// TotalTicks returns the scenario length in load-check periods.
func (sc Scenario) TotalTicks() int {
	t := 0
	for _, p := range sc.Phases {
		t += p.Ticks
	}
	return t
}

// phaseAt returns the phase covering tick k.
func (sc Scenario) phaseAt(k int) Phase {
	for _, p := range sc.Phases {
		if k < p.Ticks {
			return p
		}
		k -= p.Ticks
	}
	if len(sc.Phases) == 0 {
		return Phase{}
	}
	return sc.Phases[len(sc.Phases)-1]
}

// TickSample is one per-tick metrics record.
type TickSample struct {
	Tick        int     `json:"tick"`
	VirtualSec  float64 `json:"t_virtual_s"`
	Phase       string  `json:"phase"`
	LiveNodes   int     `json:"live_nodes"`
	Groups      int     `json:"active_groups"`
	Holders     int     `json:"servers_with_groups"`
	DepthMin    int     `json:"depth_min"`
	DepthMax    int     `json:"depth_max"`
	DepthMean   float64 `json:"depth_mean"`
	MaxLoad     float64 `json:"max_node_load"`
	TotalLoad   float64 `json:"total_load"`
	Splits      int     `json:"splits"`
	Merges      int     `json:"merges"`
	Accepted    int     `json:"groups_accepted"`
	Released    int     `json:"groups_released"`
	Packets     int     `json:"packets_ok"`
	PubErrors   int     `json:"publish_errors"`
	MatchInline int     `json:"matches_inline"`
	MatchDelivd int     `json:"matches_delivered"`
}

// Totals are the end-of-run cumulative counters.
type Totals struct {
	Splits           int   `json:"splits"`
	Merges           int   `json:"merges"`
	GroupsAccepted   int   `json:"groups_accepted"`
	GroupsReleased   int   `json:"groups_released"`
	PacketsOK        int   `json:"packets_ok"`
	PublishErrors    int   `json:"publish_errors"`
	MatchesInline    int   `json:"matches_inline"`
	MatchesDelivered int   `json:"matches_delivered"`
	MatchDrops       int64 `json:"match_drops"`
	Calls            int   `json:"transport_calls"`
	// Timeouts and Retries are summed over the live nodes' transport stats:
	// calls that expired at their deadline, and policy-level resends.
	Timeouts uint64 `json:"timeouts,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
}

// Result is the JSON-stable record of one scenario run. It contains no
// wall-clock timestamps, so two runs with the same scenario and seed marshal
// byte-identically.
type Result struct {
	Scenario       Scenario        `json:"scenario"`
	RunVirtualSec  float64         `json:"run_virtual_s"`
	Ticks          []TickSample    `json:"ticks"`
	FinalDepthHist []int           `json:"final_depth_hist"`
	Totals         Totals          `json:"totals"`
	MatchLatencyMs metrics.Summary `json:"match_latency_virtual_ms"`
	// TickCostMs summarises the virtual blocking cost of the healthy (not
	// gray-slowed) nodes' maintenance ticks; SlowTickCostMs covers the
	// gray-slowed nodes when a SlowSpec is set.
	TickCostMs       metrics.Summary  `json:"tick_cost_virtual_ms"`
	SlowTickCostMs   *metrics.Summary `json:"slow_tick_cost_virtual_ms,omitempty"`
	RingConverged    bool             `json:"ring_converged"`
	RingDrift        int              `json:"ring_drift"`
	CoverageComplete bool             `json:"coverage_complete"`
	CoverageOverlaps int              `json:"coverage_overlaps"`
	// Durability accounting: how many group-holding nodes the churn
	// schedule crashed (HoldersAtFirstCrash is the holder population when
	// the first crash hit), how many of the boot-registered continuous
	// queries are still stored on live nodes at the end, and how many
	// end-of-run matching probes failed to report their query.
	HoldersCrashed      int      `json:"holders_crashed"`
	HoldersAtFirstCrash int      `json:"holders_at_first_crash"`
	GroupsRecovered     int      `json:"groups_recovered"`
	CQRegistered        int      `json:"cq_registered"`
	CQSurviving         int      `json:"cq_surviving"`
	CQProbeMisses       int      `json:"cq_probe_misses"`
	LostCQs             []string `json:"lost_cqs,omitempty"`
	// Events counts the protocol events the nodes' observers reported over
	// the whole run (boot included), by event type.
	Events map[string]int `json:"events,omitempty"`
	// Spans summarises the hop spans of the run's sampled publishes (present
	// only when Scenario.TraceEvery is set and at least one span was emitted).
	Spans      *SpanReport `json:"spans,omitempty"`
	Violations []string    `json:"violations"`
}

// eventCounter is the simulator's overlay.Observer (the hub's role in a live
// deployment): it counts protocol events by type across every node, so the
// scenario assertions can cross-check the event stream against the protocol
// counters, and collects every hop span the traced publishes emit so the
// span-completeness invariant can be checked at the end of the run. Trace
// records and stage timings are ignored — the virtual clock makes every
// in-node stage zero.
type eventCounter struct {
	mu     sync.Mutex
	counts map[string]int
	spans  []overlay.Span
}

func newEventCounter() *eventCounter {
	return &eventCounter{counts: make(map[string]int)}
}

func (c *eventCounter) OnEvent(ev overlay.Event) {
	c.mu.Lock()
	c.counts[ev.Type]++
	c.mu.Unlock()
}

func (c *eventCounter) OnTrace(overlay.TraceRecord) {}

func (c *eventCounter) OnTraceStage(string, int64) {}

// OnSpan retains every hop span in emission order. The simulation is
// single-threaded (InlineMatchPush), so the order — and with it the whole
// span analysis — is deterministic for a given scenario and seed.
func (c *eventCounter) OnSpan(sp overlay.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, sp)
	c.mu.Unlock()
}

func (c *eventCounter) snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

func (c *eventCounter) spanSnapshot() []overlay.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]overlay.Span(nil), c.spans...)
}

// simNode is one simulated overlay member.
type simNode struct {
	node *overlay.Node
	addr string
	down bool
}

// runner holds one scenario execution's state.
type runner struct {
	sc     Scenario
	eng    *Engine
	net    *overlay.MemNetwork
	nodes  []*simNode
	client *overlay.Client

	gen     *workload.KeyGenerator
	attrRng *rand.Rand

	packets   int
	pubErrors int
	inline    int
	delivered int

	queries             []cq.Query // the boot-registered continuous queries
	holdersCrashed      int
	holdersAtFirstCrash int

	// Gray-failure accounting: which nodes are slowed, and the virtual cost
	// of every measured maintenance tick (healthy vs slowed, microseconds).
	slowSet      map[string]bool
	tickCost     *metrics.Histogram
	slowTickCost *metrics.Histogram

	// events counts the protocol events every node's observer reports.
	events *eventCounter
}

// Run executes a scenario to completion and returns its result.
func Run(sc Scenario) (*Result, error) {
	if sc.Nodes < 1 {
		return nil, fmt.Errorf("sim: scenario needs at least one node")
	}
	if sc.TotalTicks() == 0 {
		return nil, fmt.Errorf("sim: scenario has no phases")
	}
	sc.WorkloadName = sc.Workload.String()
	sc.CheckEverySec = sc.CheckEvery.Seconds()

	eng := NewEngine(sc.Seed)
	// Boot on a lossless copy of the scenario link so the overlay always
	// converges (and the root distribution completes) before measurement;
	// the real model engages when the run starts.
	bootLink := sc.Link
	bootLink.Loss = 0
	net := overlay.NewMemNetwork()
	net.SetClock(eng)
	if err := net.SetLink(bootLink, eng.Rand()); err != nil {
		return nil, err
	}
	if err := sc.Link.Validate(); err != nil {
		return nil, err
	}
	r := &runner{
		sc: sc, eng: eng, net: net,
		slowSet:      make(map[string]bool),
		tickCost:     metrics.NewHistogram(),
		slowTickCost: metrics.NewHistogram(),
		events:       newEventCounter(),
	}
	if err := r.boot(); err != nil {
		return nil, err
	}
	if err := net.SetLink(sc.Link, eng.Rand()); err != nil {
		return nil, err
	}
	// Gray slowness engages with the real link model: the overlay converges
	// at full speed, then the slowed minority starts dragging.
	if s := sc.Slow; s != nil {
		first := len(r.nodes) - int(math.Ceil(float64(len(r.nodes))*s.Fraction))
		if first < 1 {
			first = 1 // never slow the bootstrap node
		}
		for _, sn := range r.nodes[first:] {
			net.SetSlow(sn.addr, s.Factor)
			r.slowSet[sn.addr] = true
		}
	}
	bootEnd := eng.VirtualNow()

	res := &Result{
		Scenario:   sc,
		Violations: []string{},
	}
	r.schedule(bootEnd, res)
	end := bootEnd + time.Duration(sc.TotalTicks())*sc.CheckEvery + sc.CheckEvery
	eng.RunUntil(end)
	r.finish(res, bootEnd)
	return res, nil
}

// boot builds the overlay: node 0 bootstraps the initial partition, the rest
// join sequentially (with interleaved maintenance rounds so lookups stay
// logarithmic), the ring converges, root groups migrate to their hash owners,
// and the continuous queries are registered.
func (r *runner) boot() error {
	sc := r.sc
	space := chord.DefaultSpace()
	cfg := overlay.Config{
		KeyBits:           sc.KeyBits,
		Space:             space,
		Model:             load.DefaultModel(sc.Capacity),
		BootstrapDepth:    sc.BootstrapDepth,
		StabilizeInterval: sc.StabilizeEvery,
		LoadCheckInterval: sc.CheckEvery,
		Clock:             r.eng,
		Seed:              sc.Seed,
		InlineMatchPush:   true,
		ReplicationFactor: sc.Replicas,
	}
	r.nodes = make([]*simNode, sc.Nodes)
	for i := range r.nodes {
		addr := fmt.Sprintf("sim-%04d", i)
		node, err := overlay.NewNode(r.net.Endpoint(addr), cfg)
		if err != nil {
			return err
		}
		node.SetObserver(r.events)
		r.nodes[i] = &simNode{node: node, addr: addr}
	}
	if err := r.nodes[0].node.BootstrapRoots(); err != nil {
		return err
	}
	// Join in ascending ring-position order, stabilizing the would-be
	// predecessors right after each join. Inserted this way, every new node
	// is the largest member so far, so exactly two nodes can need to adopt
	// it as successor — the previously inserted one and the bootstrap node —
	// and one stabilize round each fixes them. The ring is exact after every
	// join instead of converging one hop per round (which at 1000 nodes
	// would need ~1000 full maintenance rounds).
	rest := append([]*simNode(nil), r.nodes[1:]...)
	sort.Slice(rest, func(i, j int) bool {
		return space.HashString(rest[i].addr) < space.HashString(rest[j].addr)
	})
	prev := r.nodes[0]
	for _, sn := range rest {
		if err := sn.node.Join(r.nodes[0].addr); err != nil {
			return err
		}
		prev.node.Tick()
		r.nodes[0].node.Tick()
		prev = sn
	}
	if len(r.nodes) > 1 {
		// The bootstrap node needs a repair contact too, or losing its whole
		// successor list to a churn/partition wave islands it forever — and
		// an islanded bootstrap answers every healing lookup with itself.
		r.nodes[0].node.SetRepairContact(r.nodes[1].addr)
	}
	r.converge(3)
	// Root groups migrate to their hash owners over a couple of load checks.
	for i := 0; i < 2; i++ {
		r.checkAll()
	}

	// The scenario client: resolves depths, publishes the workload and
	// receives pushed CQ matches.
	seeds := []string{r.nodes[0].addr}
	if len(r.nodes) > 2 {
		seeds = append(seeds, r.nodes[1].addr, r.nodes[2].addr)
	}
	client, err := overlay.NewClient(r.net.Endpoint("sim-client"), sc.KeyBits, space, seeds...)
	if err != nil {
		return err
	}
	r.client = client
	// Sampling engages before the queries register, so registration traffic
	// (and the replica pushes it fans out) is traced too.
	if sc.TraceEvery > 0 {
		client.SetTraceEvery(sc.TraceEvery)
	}

	spec := workload.SpecFor(sc.Workload)
	spec.KeyBits = sc.KeyBits
	gen, err := workload.NewKeyGenerator(spec, rand.New(rand.NewSource(sc.Seed+1)))
	if err != nil {
		return err
	}
	r.gen = gen
	r.attrRng = rand.New(rand.NewSource(sc.Seed + 2))

	for i := 0; i < sc.Queries; i++ {
		region := bitkey.NewGroup(bitkey.Key{Value: uint64(gen.NextBase()), Bits: spec.BaseBits})
		q := cq.Query{
			ID:         fmt.Sprintf("q-%03d", i),
			Region:     region,
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		if _, err := client.Register(q); err != nil {
			return fmt.Errorf("register %s: %w", q.ID, err)
		}
		r.queries = append(r.queries, q)
	}
	r.drainMatches()
	return nil
}

// converge runs full maintenance rounds over every live node.
func (r *runner) converge(rounds int) {
	for i := 0; i < rounds; i++ {
		for _, sn := range r.nodes {
			if sn.down {
				continue
			}
			sn.node.Tick()
		}
	}
	for _, sn := range r.nodes {
		if !sn.down {
			_ = sn.node.FixAllFingers()
		}
	}
}

// checkAll runs one load-check round over every live node.
func (r *runner) checkAll() {
	for _, sn := range r.nodes {
		if !sn.down {
			sn.node.LoadCheck(r.eng.Now())
		}
	}
}

// schedule installs every recurring event of the run: staggered per-node
// stabilization and load checks, per-tick traffic bursts, churn, partition
// windows and the per-tick metrics sample.
func (r *runner) schedule(base time.Duration, res *Result) {
	sc := r.sc
	ticks := sc.TotalTicks()
	n := len(r.nodes)

	// Stabilization rounds, each node offset within the interval. Each tick
	// runs under a cost trace: the simulator executes events instantaneously,
	// so the virtual time a real node would have spent blocked on its tick's
	// calls (RTTs, expired deadlines, drop timeouts) is accounted into the
	// healthy/slowed histograms — the data behind MaxHealthyTickMs.
	stabRounds := int(time.Duration(ticks)*sc.CheckEvery/sc.StabilizeEvery) + 1
	for round := 0; round < stabRounds; round++ {
		at := base + time.Duration(round)*sc.StabilizeEvery
		for i, sn := range r.nodes {
			sn := sn
			off := time.Duration(i) * sc.StabilizeEvery / time.Duration(n)
			r.eng.At(at+off, func() {
				if sn.down {
					return
				}
				cost := r.net.TraceCall(sn.node.Tick)
				if r.slowSet[sn.addr] {
					r.slowTickCost.Record(cost.Microseconds())
				} else {
					r.tickCost.Record(cost.Microseconds())
				}
			})
		}
	}

	// Load checks: every node once per tick, staggered strictly inside the
	// window ((i+1)/(n+1) offsets: never on a tick boundary, so the
	// boundary's metrics sample always runs after every check of its own
	// tick and before any check of the next).
	for tick := 0; tick < ticks; tick++ {
		at := base + time.Duration(tick)*sc.CheckEvery
		for i, sn := range r.nodes {
			sn := sn
			off := time.Duration(i+1) * sc.CheckEvery / time.Duration(n+1)
			r.eng.At(at+off, func() {
				if !sn.down {
					sn.node.LoadCheck(r.eng.Now())
				}
			})
		}
	}

	// Traffic: one burst per tick, early in the window so the same window's
	// load checks observe it.
	for tick := 0; tick < ticks; tick++ {
		tick := tick
		at := base + time.Duration(tick)*sc.CheckEvery + sc.CheckEvery/16
		r.eng.At(at, func() { r.burst(sc.phaseAt(tick)) })
	}

	// Churn.
	for _, ev := range sc.Churn {
		ev := ev
		at := base + time.Duration(ev.Tick)*sc.CheckEvery + sc.CheckEvery/64
		r.eng.At(at, func() { r.applyChurn(ev) })
	}

	// Partition window.
	if p := sc.Partition; p != nil {
		first := n - int(float64(n)*p.Fraction)
		if first < 1 {
			first = 1 // never isolate the bootstrap node from the client
		}
		r.eng.At(base+time.Duration(p.FromTick)*sc.CheckEvery, func() {
			for _, sn := range r.nodes[first:] {
				r.net.SetPartition(sn.addr, 1)
			}
		})
		r.eng.At(base+time.Duration(p.ToTick)*sc.CheckEvery, func() {
			r.net.Heal()
			// Heal protocol: the isolated side re-joins through the
			// bootstrap node (the deployment's anti-entropy for prolonged
			// isolation — two stabilized rings never re-merge on their own).
			r.rejoinBatch(r.nodes[first:])
		})
	}

	// Asymmetric-partition window: the majority's requests to the minority
	// are blackholed while the reverse direction keeps (half-)working — the
	// minority's requests deliver but their replies are lost.
	if p := sc.Asym; p != nil {
		first := n - int(float64(n)*p.Fraction)
		if first < 1 {
			first = 1 // never isolate the bootstrap node from the client
		}
		r.eng.At(base+time.Duration(p.FromTick)*sc.CheckEvery, func() {
			for _, sn := range r.nodes[first:] {
				r.net.SetAsymGroup(sn.addr, 1)
			}
			r.net.SetAsymBlocked(0, 1, true)
		})
		r.eng.At(base+time.Duration(p.ToTick)*sc.CheckEvery, func() {
			r.net.HealAsym()
			// Same heal protocol as a symmetric partition: the cut-off side
			// re-joins through the bootstrap node.
			r.rejoinBatch(r.nodes[first:])
		})
	}

	// Per-tick metrics sample at each window's end (after its load checks,
	// whose stagger stays strictly inside the window).
	for tick := 0; tick < ticks; tick++ {
		tick := tick
		at := base + time.Duration(tick+1)*sc.CheckEvery
		r.eng.At(at, func() {
			res.Ticks = append(res.Ticks, r.sample(tick, base))
		})
	}
}

// burst publishes one tick's packets.
func (r *runner) burst(p Phase) {
	sc := r.sc
	remBits := sc.KeyBits - workload.DefaultBaseBits
	for i := 0; i < p.Packets; i++ {
		var key bitkey.Key
		if p.HotShare > 0 && r.attrRng.Float64() < p.HotShare {
			rem := r.eng.Rand().Uint64() & (^uint64(0) >> uint(64-remBits))
			key = bitkey.Key{Value: uint64(p.HotBase)<<uint(remBits) | rem, Bits: sc.KeyBits}
		} else {
			key = r.gen.Next()
		}
		attrs := map[string]float64{"speed": r.attrRng.Float64() * 100}
		pr, err := r.client.Publish(key, attrs, nil)
		if err != nil {
			r.pubErrors++
		} else {
			r.packets++
			r.inline += len(pr.Matches)
		}
		r.drainMatches()
	}
}

// drainMatches counts the pushed match notifications delivered so far.
func (r *runner) drainMatches() {
	for {
		select {
		case <-r.client.Matches():
			r.delivered++
		default:
			return
		}
	}
}

// applyChurn crashes or rejoins nodes. Victims are drawn deterministically
// from the engine PRNG among the live non-bootstrap members (holder-targeted
// crashes draw from the members holding at least one active group); rejoins
// revive crashed nodes in node-index order (deterministic, unrelated to crash
// time).
func (r *runner) applyChurn(ev ChurnEvent) {
	if ev.CrashHolderFrac > 0 {
		holders := r.holders()
		if r.holdersAtFirstCrash == 0 {
			r.holdersAtFirstCrash = len(holders)
		}
		crash := int(math.Ceil(ev.CrashHolderFrac * float64(len(holders))))
		for c := 0; c < crash && len(holders) > 0; c++ {
			i := r.eng.Rand().Intn(len(holders))
			victim := holders[i]
			holders = append(holders[:i], holders[i+1:]...)
			victim.down = true
			r.net.SetDown(victim.addr, true)
			r.holdersCrashed++
		}
	}
	for c := 0; c < ev.Crash; c++ {
		var live []*simNode
		for _, sn := range r.nodes[1:] {
			if !sn.down {
				live = append(live, sn)
			}
		}
		if len(live) == 0 {
			break
		}
		victim := live[r.eng.Rand().Intn(len(live))]
		if r.holdersAtFirstCrash == 0 && len(victim.node.Server().ActiveGroups()) > 0 {
			r.holdersAtFirstCrash = r.countHolders()
		}
		if len(victim.node.Server().ActiveGroups()) > 0 {
			r.holdersCrashed++
		}
		victim.down = true
		r.net.SetDown(victim.addr, true)
	}
	var revived []*simNode
	for c := 0; c < ev.Rejoin; c++ {
		var crashed *simNode
		for _, sn := range r.nodes {
			if sn.down {
				crashed = sn
				break
			}
		}
		if crashed == nil {
			break
		}
		crashed.down = false
		r.net.SetDown(crashed.addr, false)
		revived = append(revived, crashed)
	}
	r.rejoinBatch(revived)
}

// holders returns the live non-bootstrap nodes holding at least one active
// key group.
func (r *runner) holders() []*simNode {
	var out []*simNode
	for _, sn := range r.nodes[1:] {
		if !sn.down && len(sn.node.Server().ActiveGroups()) > 0 {
			out = append(out, sn)
		}
	}
	return out
}

// countHolders counts the live non-bootstrap nodes holding at least one
// active key group.
func (r *runner) countHolders() int { return len(r.holders()) }

// rejoinBatch re-joins a set of nodes in ascending ring-position order,
// stabilizing each right after its join — the same insertion discipline boot
// uses. An unordered mass re-join through one contact can tangle the ring
// into a stable wrong state (mutually reinforcing successor/predecessor
// pairs that stabilization alone cannot untie); ordered insertion keeps every
// intermediate ring exact.
func (r *runner) rejoinBatch(batch []*simNode) {
	space := chord.DefaultSpace()
	batch = append([]*simNode(nil), batch...)
	sort.Slice(batch, func(i, j int) bool {
		return space.HashString(batch[i].addr) < space.HashString(batch[j].addr)
	})
	for _, sn := range batch {
		if sn.down {
			continue
		}
		_ = sn.node.Rejoin(r.nodes[0].addr)
		sn.node.Tick()
	}
}

// sample records one tick's metrics.
func (r *runner) sample(tick int, base time.Duration) TickSample {
	s := TickSample{
		Tick:        tick,
		VirtualSec:  (r.eng.VirtualNow() - base).Seconds(),
		Phase:       r.sc.phaseAt(tick).Name,
		DepthMin:    -1,
		Packets:     r.packets,
		PubErrors:   r.pubErrors,
		MatchInline: r.inline,
		MatchDelivd: r.delivered,
	}
	var depthSum int
	for _, sn := range r.nodes {
		if sn.down {
			continue
		}
		s.LiveNodes++
		groups := sn.node.Server().ActiveGroups()
		if len(groups) > 0 {
			s.Holders++
		}
		for _, g := range groups {
			s.Groups++
			d := g.Depth()
			depthSum += d
			if s.DepthMin < 0 || d < s.DepthMin {
				s.DepthMin = d
			}
			if d > s.DepthMax {
				s.DepthMax = d
			}
		}
		total := sn.node.Server().TotalLoad()
		s.TotalLoad += total
		if total > s.MaxLoad {
			s.MaxLoad = total
		}
		c := sn.node.Server().Counters()
		s.Splits += c.Splits
		s.Merges += c.Merges
		s.Accepted += c.GroupsAccepted
		s.Released += c.GroupsReleased
	}
	if s.Groups > 0 {
		s.DepthMean = float64(depthSum) / float64(s.Groups)
	}
	if s.DepthMin < 0 {
		s.DepthMin = 0
	}
	return s
}

// finish runs the end-of-run checks and fills the result.
func (r *runner) finish(res *Result, bootEnd time.Duration) {
	r.drainMatches()
	sc := r.sc
	res.RunVirtualSec = (r.eng.VirtualNow() - bootEnd).Seconds()

	var totals Totals
	totals.PacketsOK = r.packets
	totals.PublishErrors = r.pubErrors
	totals.MatchesInline = r.inline
	totals.MatchesDelivered = r.delivered
	depthHist := make([]int, sc.KeyBits+1)
	var groups []bitkey.Group
	var ring []invariant.Member
	space := chord.DefaultSpace()
	for _, sn := range r.nodes {
		if sn.down {
			continue
		}
		m := invariant.Member{Addr: sn.addr, ID: uint64(space.HashString(sn.addr))}
		if succs := sn.node.Successors(); len(succs) > 0 {
			m.Successor = succs[0].Addr
		}
		ring = append(ring, m)
		c := sn.node.Server().Counters()
		totals.Splits += c.Splits
		totals.Merges += c.Merges
		totals.GroupsAccepted += c.GroupsAccepted
		totals.GroupsReleased += c.GroupsReleased
		res.GroupsRecovered += c.GroupsRecovered
		totals.MatchDrops += sn.node.MatchDrops()
		for _, g := range sn.node.Server().ActiveGroups() {
			depthHist[g.Depth()]++
			groups = append(groups, g)
		}
	}
	res.HoldersCrashed = r.holdersCrashed
	res.HoldersAtFirstCrash = r.holdersAtFirstCrash
	for _, sn := range r.nodes {
		st := r.net.Endpoint(sn.addr).Stats()
		totals.Timeouts += st.Timeouts
		totals.Retries += st.Retries
	}
	for _, t := range overlay.MessageTypes() {
		totals.Calls += r.net.Calls(t)
	}
	res.Totals = totals
	res.FinalDepthHist = depthHist
	if h := r.net.Latency(overlay.TypeMatch); h != nil {
		// The histograms record virtual microseconds; report milliseconds.
		res.MatchLatencyMs = msSummary(h.Summary())
	}
	res.TickCostMs = msSummary(r.tickCost.Summary())
	if s := r.slowTickCost.Summary(); s.Count > 0 {
		ms := msSummary(s)
		res.SlowTickCostMs = &ms
	}
	res.Events = r.events.snapshot()
	// The span report is built before the durability probes run, so — like
	// the headline counters — it covers only the scenario's own traffic.
	res.Spans = buildSpanReport(r.events.spanSnapshot(), r.net)
	tiling := invariant.Tiling(groups)
	res.CoverageComplete = len(tiling) == 0
	for _, v := range tiling {
		if v.Kind == invariant.Overlap {
			res.CoverageOverlaps++
		}
	}
	res.RingDrift = len(invariant.RingOrder(ring))
	res.RingConverged = res.RingDrift == 0
	// The durability check runs after the totals snapshot, so its probe
	// traffic never perturbs the headline counters.
	r.checkDurability(res, sc.Expect.ZeroLostCQ)

	ex := sc.Expect
	if totals.Splits < ex.MinSplits {
		res.Violations = append(res.Violations,
			fmt.Sprintf("splits %d < expected %d", totals.Splits, ex.MinSplits))
	}
	if totals.Merges < ex.MinMerges {
		res.Violations = append(res.Violations,
			fmt.Sprintf("merges %d < expected %d", totals.Merges, ex.MinMerges))
	}
	if ex.AllMatchesDelivered {
		if totals.MatchesDelivered != totals.MatchesInline || totals.MatchDrops != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("matches delivered %d != matched %d (drops %d)",
					totals.MatchesDelivered, totals.MatchesInline, totals.MatchDrops))
		}
	}
	if ex.CoverageComplete && !res.CoverageComplete {
		res.Violations = append(res.Violations,
			fmt.Sprintf("active groups do not cover the key space (%d overlaps)", res.CoverageOverlaps))
	}
	if ex.RingConverged && !res.RingConverged {
		res.Violations = append(res.Violations,
			fmt.Sprintf("chord ring did not converge over the live nodes (%d stale successors)", res.RingDrift))
	}
	if ex.MaxRingDrift > 0 && res.RingDrift > ex.MaxRingDrift {
		res.Violations = append(res.Violations,
			fmt.Sprintf("ring drift %d exceeds the allowed %d", res.RingDrift, ex.MaxRingDrift))
	}
	if ex.ZeroLostCQ {
		if res.CQSurviving != res.CQRegistered {
			res.Violations = append(res.Violations,
				fmt.Sprintf("lost %d of %d continuous queries to crashes (e.g. %v)",
					res.CQRegistered-res.CQSurviving, res.CQRegistered, res.LostCQs))
		}
		if res.CQProbeMisses > 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%d of %d end-of-run probes did not match their query",
					res.CQProbeMisses, res.CQRegistered))
		}
	}
	if ex.MinHolderCrashFrac > 0 {
		base := res.HoldersAtFirstCrash
		if base == 0 || float64(res.HoldersCrashed) < ex.MinHolderCrashFrac*float64(base) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("churn crashed %d of %d holders, below the required fraction %.2f",
					res.HoldersCrashed, base, ex.MinHolderCrashFrac))
		}
	}
	if ex.MaxHealthyTickMs > 0 && res.TickCostMs.P99 > ex.MaxHealthyTickMs {
		res.Violations = append(res.Violations,
			fmt.Sprintf("healthy-node tick cost p99 %.1fms exceeds the allowed %.1fms",
				res.TickCostMs.P99, ex.MaxHealthyTickMs))
	}
	if ex.SpansComplete {
		switch {
		case res.Spans == nil || res.Spans.Traces == 0:
			res.Violations = append(res.Violations,
				"no sampled traces recorded any hop spans")
		case res.Spans.Complete != res.Spans.Traces:
			res.Violations = append(res.Violations,
				fmt.Sprintf("%d of %d sampled traces have disconnected or multi-rooted span trees (e.g. %v)",
					res.Spans.Traces-res.Spans.Complete, res.Spans.Traces, res.Spans.Incomplete))
		}
	}
	if ex.EventsConsistent {
		splitEvents := res.Events[overlay.EventSplit]
		if splitEvents > totals.Splits || (splitEvents == 0) != (totals.Splits == 0) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%d split events inconsistent with %d counted splits", splitEvents, totals.Splits))
		}
		if mergeEvents := res.Events[overlay.EventMerge]; mergeEvents != totals.Merges {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%d merge events != %d counted merges", mergeEvents, totals.Merges))
		}
		recEvents := res.Events[overlay.EventRecovery]
		if recEvents > res.GroupsRecovered || (recEvents == 0) != (res.GroupsRecovered == 0) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%d recovery events inconsistent with %d recovered groups", recEvents, res.GroupsRecovered))
		}
	}
}

// msSummary converts a microsecond latency summary into milliseconds.
func msSummary(s metrics.Summary) metrics.Summary {
	return metrics.Summary{
		Count: s.Count,
		Min:   s.Min / 1e3,
		Max:   s.Max / 1e3,
		Mean:  s.Mean / 1e3,
		P50:   s.P50 / 1e3,
		P95:   s.P95 / 1e3,
		P99:   s.P99 / 1e3,
	}
}

// checkDurability fills the continuous-query survival fields: the structural
// check walks every live node's engine and requires each boot-registered
// query to still be stored somewhere; with probe set, it additionally
// publishes one matching packet into each query's region and requires the
// accepting server to report the query matched — proof the recovered state
// actually serves traffic, not just that the bytes survived.
func (r *runner) checkDurability(res *Result, probe bool) {
	res.CQRegistered = len(r.queries)
	if len(r.queries) == 0 {
		return
	}
	stored := make(map[string]bool)
	for _, sn := range r.nodes {
		if sn.down {
			continue
		}
		for _, q := range sn.node.Engine().All() {
			stored[q.ID] = true
		}
	}
	for _, q := range r.queries {
		if stored[q.ID] {
			res.CQSurviving++
		} else if len(res.LostCQs) < 16 {
			res.LostCQs = append(res.LostCQs, q.ID)
		}
	}
	if !probe {
		return
	}
	for _, q := range r.queries {
		key, err := q.Region.VirtualKey(r.sc.KeyBits)
		if err != nil {
			res.CQProbeMisses++
			continue
		}
		hit := false
		for attempt := 0; attempt < 3 && !hit; attempt++ {
			pr, err := r.client.Publish(key, map[string]float64{"speed": 99}, nil)
			if err != nil {
				continue
			}
			for _, id := range pr.Matches {
				if id == q.ID {
					hit = true
					break
				}
			}
		}
		if !hit {
			res.CQProbeMisses++
		}
		r.drainMatches()
	}
}
