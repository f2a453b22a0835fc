package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"clash/internal/sim/link"
	"clash/internal/workload"
)

// smallSplitMerge is a fast split-merge flavor for unit tests.
func smallSplitMerge(nodes int, seed int64) Scenario {
	sc, err := Named("split-merge", nodes, seed)
	if err != nil {
		panic(err)
	}
	return sc
}

func TestScenarioSplitMergeSmall(t *testing.T) {
	res, err := Run(smallSplitMerge(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Totals.Splits < 1 || res.Totals.Merges < 1 {
		t.Fatalf("splits=%d merges=%d, want load-driven splits and merges",
			res.Totals.Splits, res.Totals.Merges)
	}
	if res.Totals.MatchesDelivered != res.Totals.MatchesInline || res.Totals.MatchDrops != 0 {
		t.Fatalf("matches delivered %d != matched %d (drops %d)",
			res.Totals.MatchesDelivered, res.Totals.MatchesInline, res.Totals.MatchDrops)
	}
	if !res.CoverageComplete || !res.RingConverged {
		t.Fatalf("coverage=%v ring=%v", res.CoverageComplete, res.RingConverged)
	}
	if res.MatchLatencyMs.Count == 0 || res.MatchLatencyMs.P50 <= 0 {
		t.Fatalf("no virtual match latency recorded: %+v", res.MatchLatencyMs)
	}
	if len(res.Ticks) != smallSplitMerge(40, 1).TotalTicks() {
		t.Fatalf("ticks recorded = %d", len(res.Ticks))
	}
}

// TestScenarioDeterminism is the core determinism guarantee: two runs with
// the same scenario and seed marshal to identical bytes, and a different seed
// diverges.
func TestScenarioDeterminism(t *testing.T) {
	marshal := func(seed int64) []byte {
		res, err := Run(smallSplitMerge(30, seed))
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := marshal(5), marshal(5)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different result bytes")
	}
	if bytes.Equal(a, marshal(6)) {
		t.Fatal("different seed produced identical result bytes")
	}
}

func TestScenarioPartitionHealSmall(t *testing.T) {
	sc, err := Named("partition-heal", 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !res.RingConverged {
		t.Fatalf("ring drift %d after heal", res.RingDrift)
	}
	// The client must have been cut off from the isolated side's groups
	// during the window (the scenario records real unavailability).
	if res.Totals.PublishErrors == 0 {
		t.Error("partition caused no publish errors — the window had no effect")
	}
}

func TestNamedScenarios(t *testing.T) {
	for _, name := range Names() {
		sc, err := Named(name, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Nodes <= 0 || sc.TotalTicks() == 0 {
			t.Errorf("%s: empty default scenario", name)
		}
	}
	if _, err := Named("bogus", 0, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestHotPacketsScalesWithDepth(t *testing.T) {
	sc := Scenario{
		KeyBits:        workload.DefaultKeyBits,
		Capacity:       50,
		Workload:       workload.WorkloadC,
		CheckEvery:     30 * time.Second,
		BootstrapDepth: 2,
		Link:           link.Model{},
	}
	shallow := hotPacketsFor(sc, 4)
	sc.BootstrapDepth = 8
	deep := hotPacketsFor(sc, 4)
	if deep <= shallow {
		t.Errorf("hot packets shallow=%d deep=%d; deeper partitions must need more traffic", shallow, deep)
	}
}
