package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"clash/internal/load"
	"clash/internal/sim/link"
	"clash/internal/workload"
)

// Named builds one of the predefined scenarios with the given node count and
// seed (nodes <= 0 selects the scenario's default size). The four names cover
// the behaviors the paper's evaluation exercises:
//
//	split-merge     a heavy-skew load wave forces load-driven splits, then
//	                the cooldown consolidates the tree back (the §6 Figure 4
//	                shape); lossless WAN links, so every CQ match must arrive
//	churn           nodes crash and rejoin throughout a steady workload on a
//	                lossy WAN; the ring and the key-space coverage must be
//	                whole at the end
//	flash-crowd     a uniform baseline, then most traffic slams one narrow
//	                key region and decays again
//	partition-heal  the fabric splits in two for several periods, heals, and
//	                the isolated side rejoins; the ring and coverage must
//	                recover
//	slow-node       a tenth of the nodes turn gray — alive but 50x slower —
//	                for the whole run; the ring must converge, no CQ may be
//	                lost, and the healthy nodes' maintenance tick cost must
//	                stay bounded (one slow peer must not wedge everyone)
//	asym-partition  one direction to a minority is blackholed for a window
//	                (requests vanish, the reverse half-works), then heals;
//	                coverage must recover with no overlapping group ownership
func Named(name string, nodes int, seed int64) (Scenario, error) {
	switch name {
	case "split-merge":
		return splitMerge(nodes, seed), nil
	case "churn":
		return churn(nodes, seed), nil
	case "churn-durable":
		return churnDurable(nodes, seed), nil
	case "flash-crowd":
		return flashCrowd(nodes, seed), nil
	case "partition-heal":
		return partitionHeal(nodes, seed), nil
	case "slow-node":
		return slowNode(nodes, seed), nil
	case "asym-partition":
		return asymPartition(nodes, seed), nil
	default:
		return Scenario{}, fmt.Errorf("sim: unknown scenario %q (have %v)", name, Names())
	}
}

// Names lists the predefined scenario names.
func Names() []string {
	out := []string{"split-merge", "churn", "churn-durable", "flash-crowd",
		"partition-heal", "slow-node", "asym-partition"}
	sort.Strings(out)
	return out
}

// bootstrapDepthFor picks the initial partition depth: roughly one root group
// per 16 nodes, at least the paper's depth-2 partition, at most depth 8.
func bootstrapDepthFor(nodes int) int {
	d := int(math.Round(math.Log2(float64(nodes)/16 + 1)))
	return min(max(d+2, 2), 8)
}

// base fills the scenario fields every named scenario shares.
func base(name string, nodes, defaultNodes int, seed int64) Scenario {
	if nodes <= 0 {
		nodes = defaultNodes
	}
	return Scenario{
		Name:           name,
		Nodes:          nodes,
		Seed:           seed,
		KeyBits:        workload.DefaultKeyBits,
		BootstrapDepth: bootstrapDepthFor(nodes),
		Capacity:       50,
		Workload:       workload.WorkloadC,
		CheckEvery:     30 * time.Second,
		StabilizeEvery: 7500 * time.Millisecond,
		Queries:        64,
		Link:           link.WAN(20*time.Millisecond, 0),
	}
}

func splitMerge(nodes int, seed int64) Scenario {
	sc := base("split-merge", nodes, 300, seed)
	// The hot wave is sized from the workload's own base distribution so the
	// hottest root group lands at ~4x the overload threshold at any overlay
	// size (a deeper bootstrap partition spreads the skew thinner, so the
	// aggregate rate must rise to overload the peak's holder).
	hot := hotPacketsFor(sc, 4)
	sc.Phases = []Phase{
		{Name: "warm", Ticks: 2, Packets: hot / 10},
		{Name: "hot", Ticks: 5, Packets: hot},
		{Name: "cool", Ticks: 11, Packets: hot / 100},
	}
	// Trace a sample of the publishes (links are lossless here, so every
	// sampled publish's hop spans must assemble into one complete tree).
	sc.TraceEvery = 16
	sc.Expect = Expect{
		MinSplits:           1,
		MinMerges:           1,
		AllMatchesDelivered: true,
		CoverageComplete:    true,
		RingConverged:       true,
		EventsConsistent:    true,
		SpansComplete:       true,
	}
	return sc
}

func churn(nodes int, seed int64) Scenario {
	sc := base("churn", nodes, 200, seed)
	sc.Workload = workload.WorkloadB
	sc.Link = link.WAN(20*time.Millisecond, 0.002)
	pkts := int(sc.Capacity * sc.CheckEverySeconds())
	sc.Phases = []Phase{
		{Name: "steady", Ticks: 18, Packets: pkts},
	}
	churn := max(sc.Nodes/10, 1)
	sc.Churn = []ChurnEvent{
		{Tick: 2, Crash: churn},
		{Tick: 4, Crash: churn},
		{Tick: 6, Rejoin: churn},
		{Tick: 7, Crash: churn},
		{Tick: 9, Rejoin: 2 * churn},
	}
	sc.Expect = Expect{CoverageComplete: true, MaxRingDrift: max(sc.Nodes/50, 2)}
	return sc
}

// churnDurable is the durability scenario: waves of crashes target the nodes
// actually holding key groups (cumulatively well past 20% of the holders),
// nobody rejoins, and at the end every continuous query registered at boot
// must both still be stored on a live node and match a probe packet — i.e.
// successor-list replication must have recovered every crashed holder's
// state. The links are lossless so a lost query is attributable to the
// crashes alone, and the crashed capacity stays gone (no rejoin masks a hole
// in the recovery path).
func churnDurable(nodes int, seed int64) Scenario {
	sc := base("churn-durable", nodes, 200, seed)
	sc.Workload = workload.WorkloadB
	sc.Replicas = 3
	pkts := int(sc.Capacity * sc.CheckEverySeconds())
	sc.Phases = []Phase{
		{Name: "steady", Ticks: 18, Packets: pkts},
	}
	sc.Churn = []ChurnEvent{
		{Tick: 3, CrashHolderFrac: 0.10},
		{Tick: 6, CrashHolderFrac: 0.08},
		{Tick: 9, CrashHolderFrac: 0.07},
		{Tick: 12, CrashHolderFrac: 0.05},
	}
	sc.Expect = Expect{
		CoverageComplete:   true,
		RingConverged:      true,
		ZeroLostCQ:         true,
		MinHolderCrashFrac: 0.20,
	}
	return sc
}

func flashCrowd(nodes int, seed int64) Scenario {
	sc := base("flash-crowd", nodes, 200, seed)
	sc.Workload = workload.WorkloadA
	pkts := int(sc.Capacity * sc.CheckEverySeconds())
	// The crowd slams one base value with 90% of a 10x traffic spike.
	sc.Phases = []Phase{
		{Name: "baseline", Ticks: 3, Packets: pkts},
		{Name: "crowd", Ticks: 4, Packets: 10 * pkts, HotShare: 0.9, HotBase: 0xA5},
		{Name: "decay", Ticks: 9, Packets: pkts / 2},
	}
	sc.Expect = Expect{
		MinSplits:           1,
		AllMatchesDelivered: true,
		CoverageComplete:    true,
		RingConverged:       true,
		EventsConsistent:    true,
	}
	return sc
}

func partitionHeal(nodes int, seed int64) Scenario {
	sc := base("partition-heal", nodes, 120, seed)
	sc.Workload = workload.WorkloadB
	pkts := int(sc.Capacity * sc.CheckEverySeconds() / 2)
	sc.Phases = []Phase{
		{Name: "steady", Ticks: 3, Packets: pkts},
		{Name: "partitioned", Ticks: 4, Packets: pkts},
		{Name: "healed", Ticks: 9, Packets: pkts},
	}
	sc.Partition = &PartitionSpec{FromTick: 3, ToTick: 7, Fraction: 0.4}
	sc.Expect = Expect{CoverageComplete: true, RingConverged: true}
	return sc
}

// slowNode is the gray-failure scenario: a tenth of the nodes stay alive but
// answer 50x slower than the rest for the whole run — slow enough that the
// short deadline class expires on the first exchange, so the adaptive
// deadline/suspicion machinery must learn each slow peer's latency instead of
// flapping it through the ring. The invariants: the ring converges with the
// slow members in it, no continuous query is lost, and a healthy node's
// maintenance tick cost stays bounded well below what even one legacy blanket
// call timeout (10s) per tick would produce.
func slowNode(nodes int, seed int64) Scenario {
	sc := base("slow-node", nodes, 120, seed)
	sc.Workload = workload.WorkloadB
	sc.Replicas = 3
	// 30ms WAN x the 50x factor puts a slow peer's round trip at ~3s:
	// past the 2.5s short deadline (the first call always times out gray)
	// but comfortably inside the escalated and EWMA-learned deadlines.
	sc.Link = link.WAN(30*time.Millisecond, 0)
	pkts := int(sc.Capacity * sc.CheckEverySeconds() / 2)
	sc.Phases = []Phase{
		{Name: "steady", Ticks: 12, Packets: pkts},
	}
	sc.Slow = &SlowSpec{Fraction: 0.10, Factor: 50}
	// The honest steady cost of a healthy tick that walks its successor list
	// through slow peers is a few ~3s round trips (~15s p99 at this size);
	// the bound sits above that and far below the wedge it guards against —
	// a maintenance pass serialising full legacy 10s timeouts (a
	// successor-list walk alone would cost 40s).
	sc.Expect = Expect{
		CoverageComplete: true,
		RingConverged:    true,
		ZeroLostCQ:       true,
		MaxHealthyTickMs: 20000,
	}
	return sc
}

// asymPartition is the asymmetric gray partition: for a four-tick window the
// majority's requests to a 30% minority vanish in transit while the
// minority's requests still arrive (only their replies are lost), with a
// sprinkle of duplicated and late-delivered requests throughout. Both sides
// classify the other dead from opposite evidence (pure silence vs replies
// never coming back); after the heal the minority re-joins and the
// epoch-idempotent transfers must collapse any dual ownership the window
// created — coverage complete, zero overlaps, no query lost.
func asymPartition(nodes int, seed int64) Scenario {
	sc := base("asym-partition", nodes, 120, seed)
	sc.Workload = workload.WorkloadB
	sc.Replicas = 3
	sc.Link = link.WAN(20*time.Millisecond, 0)
	sc.Link.Dup = 0.01
	sc.Link.Reorder = 0.01
	pkts := int(sc.Capacity * sc.CheckEverySeconds() / 2)
	sc.Phases = []Phase{
		{Name: "steady", Ticks: 3, Packets: pkts},
		{Name: "asym", Ticks: 4, Packets: pkts},
		{Name: "healed", Ticks: 11, Packets: pkts},
	}
	sc.Asym = &AsymSpec{FromTick: 3, ToTick: 7, Fraction: 0.3}
	sc.Expect = Expect{
		CoverageComplete: true,
		RingConverged:    true,
		ZeroLostCQ:       true,
	}
	return sc
}

// CheckEverySeconds returns the load-check interval in seconds.
func (sc Scenario) CheckEverySeconds() float64 { return sc.CheckEvery.Seconds() }

// hotPacketsFor sizes a per-tick traffic burst so the hottest bootstrap root
// group receives factor times its holder's overload threshold: it aggregates
// the workload's base-value distribution into the root groups the bootstrap
// depth creates, finds the peak group's probability mass, and scales the
// burst so peak mass x packets = factor x overload rate x window.
func hotPacketsFor(sc Scenario, factor float64) int {
	spec := workload.SpecFor(sc.Workload)
	spec.KeyBits = sc.KeyBits
	gen, err := workload.NewKeyGenerator(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		// Fall back to a flat assumption; Validate in Run surfaces real
		// spec problems.
		return int(factor * sc.Capacity * sc.CheckEverySeconds())
	}
	dist := gen.BaseDistribution()
	groupBits := min(sc.BootstrapDepth, spec.BaseBits)
	width := len(dist) >> uint(groupBits)
	if width < 1 {
		width = 1
	}
	maxMass := 0.0
	for start := 0; start+width <= len(dist); start += width {
		m := 0.0
		for _, p := range dist[start : start+width] {
			m += p
		}
		maxMass = max(maxMass, m)
	}
	if sc.BootstrapDepth > spec.BaseBits {
		// Roots subdivide single base values; the uniform remainder bits
		// split the mass evenly.
		maxMass /= float64(int(1) << uint(sc.BootstrapDepth-spec.BaseBits))
	}
	if maxMass <= 0 {
		maxMass = 1.0 / float64(len(dist))
	}
	overloadRate := load.OverloadFraction * sc.Capacity
	return int(factor * overloadRate * sc.CheckEverySeconds() / maxMass)
}
