// Package workload generates the synthetic streaming workloads used in the
// CLASH paper's evaluation (§6.1): identifier keys are N=24 bits wide, split
// into an 8-bit "base" portion whose distribution carries the skew (Figure 3
// shows three skew levels A, B, C) and a 16-bit remainder drawn uniformly.
// Data sources emit packets at a constant rate and change their key every Ld
// packets (Ld exponentially distributed, mean 1000); query clients register
// long-lived continuous queries over keys drawn with the same skew. The
// paper's query lifetimes (exponential, mean 30 minutes) are not drawn here:
// every driver keeps its queries for the whole run. Nor are the paper's
// per-source rates (1 packet/s for A, 2 for B and C): each driver paces its
// sources from its own settings.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"clash/internal/bitkey"
)

// Kind identifies one of the paper's three workloads.
type Kind int

// The paper's workloads in increasing order of skew.
const (
	WorkloadA Kind = iota + 1
	WorkloadB
	WorkloadC
)

// String names the workload ("A", "B", "C").
func (k Kind) String() string {
	switch k {
	case WorkloadA:
		return "A"
	case WorkloadB:
		return "B"
	case WorkloadC:
		return "C"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrBadSpec reports an invalid workload specification.
var ErrBadSpec = errors.New("workload: invalid spec")

// Paper defaults (§6.1).
const (
	// DefaultKeyBits is the identifier key length N.
	DefaultKeyBits = 24
	// DefaultBaseBits is the skewed base portion X.
	DefaultBaseBits = 8
	// DefaultMeanStreamLen is the mean virtual stream length Ld in packets.
	DefaultMeanStreamLen = 1000
)

// Spec fully describes one workload phase.
type Spec struct {
	// Kind selects the base-bit skew profile.
	Kind Kind
	// KeyBits is the identifier key length N.
	KeyBits int
	// BaseBits is the number of leading key bits that carry the skew (X).
	BaseBits int
	// MeanStreamLen is the mean virtual stream length Ld in packets.
	MeanStreamLen float64
}

// SpecFor returns the paper's parameters for a workload kind.
func SpecFor(kind Kind) Spec {
	return Spec{
		Kind:          kind,
		KeyBits:       DefaultKeyBits,
		BaseBits:      DefaultBaseBits,
		MeanStreamLen: DefaultMeanStreamLen,
	}
}

// Validate checks a spec for consistency.
func (s Spec) Validate() error {
	if s.Kind < WorkloadA || s.Kind > WorkloadC {
		return fmt.Errorf("%w: kind %d", ErrBadSpec, s.Kind)
	}
	if s.KeyBits < 2 || s.KeyBits > bitkey.MaxBits {
		return fmt.Errorf("%w: key bits %d", ErrBadSpec, s.KeyBits)
	}
	if s.BaseBits < 1 || s.BaseBits >= s.KeyBits || s.BaseBits > 20 {
		return fmt.Errorf("%w: base bits %d", ErrBadSpec, s.BaseBits)
	}
	if s.MeanStreamLen <= 0 {
		return fmt.Errorf("%w: mean stream length %g", ErrBadSpec, s.MeanStreamLen)
	}
	return nil
}

// baseWeights returns the unnormalised probability weight of each base value
// for a workload kind. The shapes follow Figure 3: A is almost uniform, B has
// two moderate bumps, C concentrates most of the mass in a couple of narrow
// peaks.
func baseWeights(kind Kind, nBase int) []float64 {
	w := make([]float64, nBase)
	gauss := func(b, mu, sigma, amp float64) float64 {
		d := (b - mu) / sigma
		return amp * math.Exp(-0.5*d*d)
	}
	for b := range w {
		x := float64(b)
		switch kind {
		case WorkloadA:
			// Almost uniform with a gentle ripple.
			w[b] = 1 + 0.05*math.Sin(2*math.Pi*x/float64(nBase))
		case WorkloadB:
			// Moderate skew: a broad hotspot plus a secondary bump on a
			// uniform floor.
			w[b] = 0.35 + gauss(x, 0.25*float64(nBase), 0.05*float64(nBase), 3.0) +
				gauss(x, 0.65*float64(nBase), 0.08*float64(nBase), 1.8)
		case WorkloadC:
			// Heavy skew: nearly all mass in two narrow peaks.
			w[b] = 0.08 + gauss(x, 0.38*float64(nBase), 0.02*float64(nBase), 14.0) +
				gauss(x, 0.80*float64(nBase), 0.015*float64(nBase), 7.0)
		default:
			w[b] = 1
		}
	}
	return w
}

// KeyGenerator draws identifier keys according to a workload spec.
// It is not safe for concurrent use; each goroutine should own one generator
// (or the caller must serialise access).
type KeyGenerator struct {
	spec    Spec
	rng     *rand.Rand
	cum     []float64 // cumulative base-value distribution
	weights []float64 // normalised per-base probabilities
}

// NewKeyGenerator builds a generator for the spec using the given PRNG.
func NewKeyGenerator(spec Spec, rng *rand.Rand) (*KeyGenerator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadSpec)
	}
	nBase := 1 << uint(spec.BaseBits)
	weights := baseWeights(spec.Kind, nBase)
	var total float64
	for _, w := range weights {
		total += w
	}
	cum := make([]float64, nBase)
	probs := make([]float64, nBase)
	acc := 0.0
	for i, w := range weights {
		p := w / total
		probs[i] = p
		acc += p
		cum[i] = acc
	}
	cum[nBase-1] = 1.0
	return &KeyGenerator{spec: spec, rng: rng, cum: cum, weights: probs}, nil
}

// Clone returns an independent generator for the same spec drawing from its
// own PRNG stream seeded with seed. The clone shares the (read-only)
// precomputed distribution tables with its parent, so cloning is cheap; a
// concurrent load generator gives every connection its own clone instead of
// serialising all sources on one *rand.Rand.
func (g *KeyGenerator) Clone(seed int64) *KeyGenerator {
	return &KeyGenerator{
		spec:    g.spec,
		rng:     rand.New(rand.NewSource(seed)),
		cum:     g.cum,
		weights: g.weights,
	}
}

// BaseDistribution returns the probability of each base value (the normalised
// Figure 3 curve).
func (g *KeyGenerator) BaseDistribution() []float64 {
	out := make([]float64, len(g.weights))
	copy(out, g.weights)
	return out
}

// NextBase samples one base value.
func (g *KeyGenerator) NextBase() int {
	u := g.rng.Float64()
	// Binary search over the cumulative distribution.
	lo, hi := 0, len(g.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Next samples a full N-bit identifier key: the skewed base bits followed by
// uniform remainder bits.
func (g *KeyGenerator) Next() bitkey.Key {
	base := uint64(g.NextBase())
	remBits := g.spec.KeyBits - g.spec.BaseBits
	rem := g.rng.Uint64() & (^uint64(0) >> uint(64-remBits))
	value := base<<uint(remBits) | rem
	return bitkey.Key{Value: value, Bits: g.spec.KeyBits}
}

// NextStreamLength samples a virtual stream length Ld (packets until the next
// key change), exponentially distributed with the spec's mean and at least 1.
func (g *KeyGenerator) NextStreamLength() int {
	l := int(math.Ceil(g.rng.ExpFloat64() * g.spec.MeanStreamLen))
	if l < 1 {
		l = 1
	}
	return l
}
