package workload

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func mustGen(t *testing.T, kind Kind, seed int64) *KeyGenerator {
	t.Helper()
	g, err := NewKeyGenerator(SpecFor(kind), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpecForMatchesPaperParameters(t *testing.T) {
	a := SpecFor(WorkloadA)
	if a.KeyBits != 24 || a.BaseBits != 8 {
		t.Errorf("workload A key layout = %d/%d, want 24/8", a.KeyBits, a.BaseBits)
	}
	if a.MeanStreamLen != 1000 {
		t.Errorf("mean stream length = %g, want 1000", a.MeanStreamLen)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: Kind(9), KeyBits: 24, BaseBits: 8, MeanStreamLen: 1},
		{Kind: WorkloadA, KeyBits: 1, BaseBits: 1, MeanStreamLen: 1},
		{Kind: WorkloadA, KeyBits: 24, BaseBits: 24, MeanStreamLen: 1},
		{Kind: WorkloadA, KeyBits: 24, BaseBits: 8, MeanStreamLen: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if err := SpecFor(WorkloadC).Validate(); err != nil {
		t.Errorf("paper spec rejected: %v", err)
	}
	if _, err := NewKeyGenerator(SpecFor(WorkloadA), nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestKindString(t *testing.T) {
	if WorkloadA.String() != "A" || WorkloadB.String() != "B" || WorkloadC.String() != "C" {
		t.Error("kind names wrong")
	}
	if Kind(7).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestKeysHaveConfiguredLength(t *testing.T) {
	g := mustGen(t, WorkloadB, 1)
	for i := 0; i < 1000; i++ {
		k := g.Next()
		if k.Bits != 24 {
			t.Fatalf("key length %d, want 24", k.Bits)
		}
	}
}

// TestFigure3SkewOrdering regenerates the essence of Figure 3: sampling many
// keys per workload and histogramming the 8-bit base must show strictly
// increasing skew from A to B to C.
func TestFigure3SkewOrdering(t *testing.T) {
	const samples = 200000
	skew := func(kind Kind) float64 {
		g := mustGen(t, kind, 42)
		var counts [256]int
		for i := 0; i < samples; i++ {
			counts[g.NextBase()]++
		}
		// Skew is the fullest base's count over the mean count per base.
		return float64(slices.Max(counts[:])) / (float64(samples) / float64(len(counts)))
	}
	a, b, c := skew(WorkloadA), skew(WorkloadB), skew(WorkloadC)
	if !(a < b && b < c) {
		t.Fatalf("skew ordering violated: A=%.2f B=%.2f C=%.2f", a, b, c)
	}
	// Workload A is "almost uniform": its hottest base value should carry no
	// more than ~1.3x the mean. Workload C is extreme: > 10x.
	if a > 1.3 {
		t.Errorf("workload A skew = %.2f, want ≤ 1.3", a)
	}
	if c < 10 {
		t.Errorf("workload C skew = %.2f, want ≥ 10", c)
	}
}

func TestBaseDistributionIsNormalised(t *testing.T) {
	for _, kind := range []Kind{WorkloadA, WorkloadB, WorkloadC} {
		g := mustGen(t, kind, 3)
		dist := g.BaseDistribution()
		if len(dist) != 256 {
			t.Fatalf("distribution has %d entries, want 256", len(dist))
		}
		var sum float64
		for _, p := range dist {
			if p < 0 {
				t.Fatalf("negative probability in workload %v", kind)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %v distribution sums to %g", kind, sum)
		}
	}
}

func TestSamplerMatchesDistribution(t *testing.T) {
	// The empirical base frequency must track the declared distribution.
	g := mustGen(t, WorkloadC, 99)
	dist := g.BaseDistribution()
	const samples = 300000
	counts := make([]float64, len(dist))
	for i := 0; i < samples; i++ {
		counts[g.NextBase()]++
	}
	for b, p := range dist {
		if p < 0.01 {
			continue // only check the significant buckets
		}
		got := counts[b] / samples
		if math.Abs(got-p) > 0.2*p {
			t.Errorf("base %d: empirical %.4f vs declared %.4f", b, got, p)
		}
	}
}

func TestNextStreamLength(t *testing.T) {
	g := mustGen(t, WorkloadA, 5)
	const n = 50000
	var sumLen float64
	for i := 0; i < n; i++ {
		l := g.NextStreamLength()
		if l < 1 {
			t.Fatalf("stream length %d < 1", l)
		}
		sumLen += float64(l)
	}
	meanLen := sumLen / n
	if meanLen < 900 || meanLen > 1100 {
		t.Errorf("mean stream length = %.0f, want ≈1000", meanLen)
	}
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	a := mustGen(t, WorkloadB, 7)
	b := mustGen(t, WorkloadB, 7)
	for i := 0; i < 100; i++ {
		if !a.Next().Equal(b.Next()) {
			t.Fatal("same seed produced different key sequences")
		}
	}
	c := mustGen(t, WorkloadB, 8)
	same := true
	a2 := mustGen(t, WorkloadB, 7)
	for i := 0; i < 100; i++ {
		if !a2.Next().Equal(c.Next()) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical key sequences")
	}
}

func TestCloneIndependentStreams(t *testing.T) {
	root := mustGen(t, WorkloadB, 1)

	// Same seed → identical stream, independent of the parent's state.
	a, b := root.Clone(7), root.Clone(7)
	for i := 0; i < 1000; i++ {
		if ka, kb := a.Next(), b.Next(); !ka.Equal(kb) {
			t.Fatalf("clones with equal seeds diverged at %d: %v vs %v", i, ka, kb)
		}
	}
	// Different seeds → different streams.
	c, d := root.Clone(1), root.Clone(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c.Next().Equal(d.Next()) {
			same++
		}
	}
	if same > 100 {
		t.Errorf("clones with different seeds coincided on %d/1000 keys", same)
	}
	// The clone preserves the spec and the skew profile.
	if c.spec != root.spec {
		t.Errorf("clone spec = %+v, want %+v", c.spec, root.spec)
	}
	pRoot, pClone := root.BaseDistribution(), c.BaseDistribution()
	for i := range pRoot {
		if pRoot[i] != pClone[i] {
			t.Fatalf("clone base distribution differs at %d", i)
		}
	}
}

func TestCloneConcurrentUse(t *testing.T) {
	root := mustGen(t, WorkloadC, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := root.Clone(int64(w))
			for i := 0; i < 2000; i++ {
				_ = g.Next()
				if i%100 == 0 {
					_ = g.NextStreamLength()
				}
			}
		}(w)
	}
	wg.Wait()
}
