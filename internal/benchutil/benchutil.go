// Package benchutil generates the deterministic synthetic workloads shared by
// the core and cq benchmarks and gate tests: a prefix-free set of key groups
// produced by random splitting (the shape CLASH's split protocol yields) and
// uniform identifier keys to resolve against it.
package benchutil

import (
	"math/rand"

	"clash/internal/bitkey"
)

// PrefixFreeGroups returns n prefix-free key groups over a keyBits-bit space,
// built by repeatedly splitting a random leaf starting from the root group.
// Because splitting partitions the space, every identifier key falls in
// exactly one returned group — each benchmark lookup takes the hit path, like
// a warmed-up client cache. Deterministic for a given rng.
func PrefixFreeGroups(rng *rand.Rand, keyBits, n int) []bitkey.Group {
	// A keyBits-deep partition has at most 2^keyBits leaves; cap n so a small
	// key space cannot make the split loop spin forever.
	if keyBits < 63 && uint64(n) > 1<<uint(keyBits) {
		n = 1 << uint(keyBits)
	}
	leaves := []bitkey.Group{bitkey.NewGroup(bitkey.Key{})}
	for len(leaves) < n {
		i := rng.Intn(len(leaves))
		g := leaves[i]
		if g.Depth() >= keyBits {
			continue
		}
		left, right, err := g.Split()
		if err != nil {
			continue
		}
		leaves[i] = left
		leaves = append(leaves, right)
	}
	return leaves
}

// RandomKeys returns count uniform keyBits-bit identifier keys.
func RandomKeys(rng *rand.Rand, keyBits, count int) []bitkey.Key {
	out := make([]bitkey.Key, count)
	mask := ^uint64(0)
	if keyBits < 64 {
		mask = (1 << uint(keyBits)) - 1
	}
	for i := range out {
		out[i] = bitkey.Key{Value: rng.Uint64() & mask, Bits: keyBits}
	}
	return out
}
