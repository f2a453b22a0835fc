package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clash/internal/benchutil"
	"clash/internal/bitkey"
)

// The routing hot paths' benchmarks and gates share one scenario: 1k cached
// groups over full-width (64-bit) keys. The benchmarks report ns/op; the
// gates (TestRouterRouteAllocFree, TestAcceptScaling) fail the test run when
// Route starts allocating or the publish path loses its throughput floor or
// its multi-core scaling.
const (
	benchKeyBits = bitkey.MaxBits
	benchGroups  = 1000
	benchKeys    = 1 << 14
)

func benchWorkload() ([]bitkey.Group, []bitkey.Key) {
	rng := rand.New(rand.NewSource(1))
	groups := benchutil.PrefixFreeGroups(rng, benchKeyBits, benchGroups)
	keys := benchutil.RandomKeys(rng, benchKeyBits, benchKeys)
	return groups, keys
}

func benchServerID(i int) ServerID {
	return ServerID([]string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}[i%8])
}

func BenchmarkRoute(b *testing.B) {
	groups, keys := benchWorkload()
	r := NewRouter(benchKeyBits)
	for i, g := range groups {
		r.Learn(g, benchServerID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := r.Route(keys[i%len(keys)]); !ok {
			b.Fatal("miss on a complete partition")
		}
	}
}

func BenchmarkRouteParallel(b *testing.B) {
	groups, keys := benchWorkload()
	r := NewRouter(benchKeyBits)
	for i, g := range groups {
		r.Learn(g, benchServerID(i))
	}
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1) * 7919 // offset goroutines into the key stream
		for pb.Next() {
			r.Route(keys[i%uint64(len(keys))])
			i++
		}
	})
}

func benchTable(b *testing.B, groups []bitkey.Group) *Table {
	b.Helper()
	tab, err := NewTable(benchKeyBits)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range groups {
		tab.put(&Entry{Group: g, Active: true})
	}
	return tab
}

func BenchmarkActiveEntryFor(b *testing.B) {
	groups, keys := benchWorkload()
	tab := benchTable(b, groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.activeEntryFor(keys[i%len(keys)]); !ok {
			b.Fatal("miss on a complete partition")
		}
	}
}

func BenchmarkActiveEntryForParallel(b *testing.B) {
	groups, keys := benchWorkload()
	tab := benchTable(b, groups)
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1) * 7919
		for pb.Next() {
			tab.activeEntryFor(keys[i%uint64(len(keys))])
			i++
		}
	})
}

func BenchmarkLongestPrefixMatch(b *testing.B) {
	groups, keys := benchWorkload()
	tab := benchTable(b, groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.longestPrefixMatch(keys[i%len(keys)])
	}
}

func BenchmarkForgetServer(b *testing.B) {
	groups, _ := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRouter(benchKeyBits)
		for j, g := range groups {
			r.Learn(g, benchServerID(j))
		}
		b.StartTimer()
		r.ForgetServer(benchServerID(0))
	}
}

// TestRouterRouteAllocFree pins the client cache's hot path at zero
// allocations per Route over the benchmark scenario.
func TestRouterRouteAllocFree(t *testing.T) {
	groups, keys := benchWorkload()
	r := NewRouter(benchKeyBits)
	for i, g := range groups {
		r.Learn(g, benchServerID(i))
	}
	var i int
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := r.Route(keys[i%len(keys)]); !ok {
			t.Fatal("miss on a complete partition")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Router.Route allocates %v per op, want 0", allocs)
	}
}

// Publish-path gates for TestAcceptScaling.
const (
	// acceptFloorPPS is an order-of-magnitude guard: one core resolves
	// publishes against the read snapshot in the millions per second.
	acceptFloorPPS = 1_000_000
	// acceptScale4 is the least 4-core/1-core throughput ratio; the lock-free
	// read path must keep scaling past two cores.
	acceptScale4   = 2.5
	acceptPointDur = 300 * time.Millisecond
)

// TestAcceptScaling drives HandleAcceptObject from 1, 2 and 4 goroutines,
// with GOMAXPROCS pinned to each count, and requires the best point to clear
// acceptFloorPPS and, on machines with at least 4 CPUs, the 4-core point to
// reach acceptScale4 times the 1-core point.
func TestAcceptScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput gate: the race detector slows the publish path more than 10x")
	}
	if testing.Short() {
		t.Skip("throughput gate: measured alone, not beside other test binaries")
	}
	groups, keys := benchWorkload()
	s, err := NewServer("bench", benchKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if err := s.HandleAcceptKeyGroup(g, "seed"); err != nil {
			t.Fatal(err)
		}
	}
	// Each key is published at the depth of its covering group, so every
	// call takes the accepted (StatusOK) branch.
	depths := make([]int, len(keys))
	for i, k := range keys {
		g, ok := s.ManagesKey(k)
		if !ok {
			t.Fatalf("key %v is not covered", k)
		}
		depths[i] = g.Prefix.Bits
	}

	pps := map[int]float64{}
	best := 0.0
	for _, cores := range []int{1, 2, 4} {
		pps[cores] = measureAccept(s, keys, depths, cores, acceptPointDur)
		best = max(best, pps[cores])
		t.Logf("%d core(s): %.0f publishes/s", cores, pps[cores])
	}
	if best < acceptFloorPPS {
		t.Errorf("best point %.0f publishes/s, want >= %d", best, acceptFloorPPS)
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Logf("4-core/1-core ratio check skipped: %d CPUs", n)
	} else if ratio := pps[4] / pps[1]; ratio < acceptScale4 {
		t.Errorf("4-core throughput is %.2fx 1-core, want >= %.1fx", ratio, acceptScale4)
	}
}

// measureAccept publishes from `cores` goroutines, with GOMAXPROCS pinned to
// match, for about dur and returns the throughput in publishes per second.
func measureAccept(s *Server, keys []bitkey.Key, depths []int, cores int, dur time.Duration) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		ops  = make([]int64, cores)
	)
	start := time.Now()
	for w := 0; w < cores; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Disjoint starting offsets spread the workers over the
			// counter cells instead of marching them in step.
			i := w * (len(keys) / cores)
			var n int64
			for !stop.Load() {
				for j := 0; j < 64; j++ {
					_, _ = s.HandleAcceptObject(keys[i%len(keys)], depths[i%len(depths)])
					i++
				}
				n += 64
			}
			ops[w] = n
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	var total int64
	for _, n := range ops {
		total += n
	}
	return float64(total) / elapsed.Seconds()
}
