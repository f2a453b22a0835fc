package bitkey

import "math/bits"

// Trie is a path-compressed binary trie (a critbit/PATRICIA variant) that maps
// bit-string prefixes to values. It is the shared longest-prefix index behind
// the CLASH hot path: the Server Work Table, the client Router cache and the
// continuous-query region index all resolve a key to the set of stored
// prefixes covering it with a single O(depth) pointer walk instead of probing
// one map per candidate depth.
//
// Unlike a textbook critbit tree, interior positions can carry values: CLASH
// stores whole key groups, and a group's prefix may itself be an ancestor of a
// deeper group's prefix (active vs. inactive table entries). Every node
// therefore records the full prefix from the root, a value slot, and two
// children; non-root nodes without a value always have two children
// (path compression), so the structure holds at most 2·Len()-1 nodes.
//
// The lookup methods (LongestMatch, LongestMatchWhere, MaxCommonPrefix,
// VisitMatches) allocate nothing. Trie is not safe for concurrent use; callers
// provide synchronisation (core.Router guards one with a sync.RWMutex).
type Trie[V any] struct {
	root trieNode[V]
	size int
}

type trieNode[V any] struct {
	// prefix is the complete stored prefix from the root down to this node.
	// Storing the full key rather than the parent→node segment lets lookups
	// compare against the original search key with one XOR and makes every
	// visit callback O(1), at no extra memory cost (a Key is one word + int).
	prefix Key
	child  [2]*trieNode[V]
	val    V
	hasVal bool
}

// NewTrie returns an empty trie.
func NewTrie[V any]() *Trie[V] { return &Trie[V]{} }

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }

// commonBits returns the length of the longest common prefix of two keys.
func commonBits(a, b Key) int {
	n := a.Bits
	if b.Bits < n {
		n = b.Bits
	}
	// Align both values so the first n bits are comparable, then count the
	// shared high-order bits of the XOR. Shifts ≥ 64 are defined as 0 in Go,
	// covering the n == 0 edge.
	x := (a.Value >> uint(a.Bits-n)) ^ (b.Value >> uint(b.Bits-n))
	if x == 0 {
		return n
	}
	return n - bits.Len64(x)
}

// Put stores v under prefix p, replacing any existing value. It reports
// whether a previous value was replaced.
func (t *Trie[V]) Put(p Key, v V) bool {
	cur := &t.root
	for {
		// Invariant: cur.prefix is a prefix of p.
		if cur.prefix.Bits == p.Bits {
			replaced := cur.hasVal
			cur.val, cur.hasVal = v, true
			if !replaced {
				t.size++
			}
			return replaced
		}
		b := p.Bit(cur.prefix.Bits)
		ch := cur.child[b]
		if ch == nil {
			cur.child[b] = &trieNode[V]{prefix: p, val: v, hasVal: true}
			t.size++
			return false
		}
		l := commonBits(p, ch.prefix)
		if l == ch.prefix.Bits {
			cur = ch // ch.prefix is a prefix of p: descend
			continue
		}
		// p diverges inside ch's compressed edge: split the edge at l.
		mid := &trieNode[V]{prefix: Key{Value: p.Value >> uint(p.Bits-l), Bits: l}}
		mid.child[ch.prefix.Bit(l)] = ch
		cur.child[b] = mid
		if l == p.Bits {
			mid.val, mid.hasVal = v, true
		} else {
			mid.child[p.Bit(l)] = &trieNode[V]{prefix: p, val: v, hasVal: true}
		}
		t.size++
		return false
	}
}

// Get returns the value stored under exactly prefix p.
func (t *Trie[V]) Get(p Key) (V, bool) {
	cur := &t.root
	for {
		if cur.prefix.Bits == p.Bits {
			return cur.val, cur.hasVal
		}
		ch := cur.child[p.Bit(cur.prefix.Bits)]
		if ch == nil || ch.prefix.Bits > p.Bits || commonBits(p, ch.prefix) != ch.prefix.Bits {
			var zero V
			return zero, false
		}
		cur = ch
	}
}

// Delete removes the value stored under exactly prefix p and returns it.
func (t *Trie[V]) Delete(p Key) (V, bool) {
	var zero V
	var grand, parent *trieNode[V]
	cur := &t.root
	for cur.prefix.Bits != p.Bits {
		ch := cur.child[p.Bit(cur.prefix.Bits)]
		if ch == nil || ch.prefix.Bits > p.Bits || commonBits(p, ch.prefix) != ch.prefix.Bits {
			return zero, false
		}
		grand, parent, cur = parent, cur, ch
	}
	if !cur.hasVal {
		return zero, false
	}
	v := cur.val
	cur.val, cur.hasVal = zero, false
	t.size--
	t.compress(grand, parent, cur)
	return v, true
}

// compress restores the invariant that every non-root valueless node has two
// children, after cur lost its value. grand and parent are cur's ancestors
// (nil when cur is the root or a child of the root).
func (t *Trie[V]) compress(grand, parent, cur *trieNode[V]) {
	if parent == nil {
		return // root keeps its shape
	}
	n0, n1 := cur.child[0], cur.child[1]
	switch {
	case n0 != nil && n1 != nil:
		return
	case n0 != nil:
		*parentSlot(parent, cur) = n0
	case n1 != nil:
		*parentSlot(parent, cur) = n1
	default:
		*parentSlot(parent, cur) = nil
		// parent had two children and may now be a valueless pass-through.
		if grand != nil && !parent.hasVal {
			if only := soleChild(parent); only != nil {
				*parentSlot(grand, parent) = only
			}
		}
	}
}

func parentSlot[V any](parent, child *trieNode[V]) **trieNode[V] {
	return &parent.child[child.prefix.Bit(parent.prefix.Bits)]
}

func soleChild[V any](n *trieNode[V]) *trieNode[V] {
	if n.child[0] != nil && n.child[1] == nil {
		return n.child[0]
	}
	if n.child[1] != nil && n.child[0] == nil {
		return n.child[1]
	}
	return nil
}

// LongestMatch returns the deepest stored prefix of k and its value. It is the
// longest-prefix-match primitive of the routing hot path: one walk, zero
// allocations.
func (t *Trie[V]) LongestMatch(k Key) (Key, V, bool) {
	var best *trieNode[V]
	cur := &t.root
	for {
		if cur.hasVal {
			best = cur
		}
		if cur.prefix.Bits == k.Bits {
			break
		}
		ch := cur.child[k.Bit(cur.prefix.Bits)]
		if ch == nil || ch.prefix.Bits > k.Bits || commonBits(k, ch.prefix) != ch.prefix.Bits {
			break
		}
		cur = ch
	}
	if best == nil {
		var zero V
		return Key{}, zero, false
	}
	return best.prefix, best.val, true
}

// LongestMatchWhere returns the deepest stored prefix of k whose value
// satisfies pred. Passing a non-capturing func literal keeps the call
// allocation-free; the Server Work Table uses it to find the unique active
// entry covering a key while inactive ancestors share the same trie.
func (t *Trie[V]) LongestMatchWhere(k Key, pred func(V) bool) (Key, V, bool) {
	var best *trieNode[V]
	cur := &t.root
	for {
		if cur.hasVal && pred(cur.val) {
			best = cur
		}
		if cur.prefix.Bits == k.Bits {
			break
		}
		ch := cur.child[k.Bit(cur.prefix.Bits)]
		if ch == nil || ch.prefix.Bits > k.Bits || commonBits(k, ch.prefix) != ch.prefix.Bits {
			break
		}
		cur = ch
	}
	if best == nil {
		var zero V
		return Key{}, zero, false
	}
	return best.prefix, best.val, true
}

// MaxCommonPrefix returns the maximum, over all stored prefixes p, of the
// length of the longest common prefix of k and p (the paper's dmin in the
// INCORRECT_DEPTH reply). Zero allocations, O(depth).
func (t *Trie[V]) MaxCommonPrefix(k Key) int {
	if t.size == 0 {
		return 0
	}
	cur := &t.root
	for {
		// Invariant: cur.prefix is a prefix of k, and cur's subtree is
		// non-empty, so at least cur.prefix.Bits bits match some entry.
		if cur.prefix.Bits == k.Bits {
			return k.Bits
		}
		ch := cur.child[k.Bit(cur.prefix.Bits)]
		if ch == nil {
			// Any entry under the other child diverges exactly here.
			return cur.prefix.Bits
		}
		l := commonBits(k, ch.prefix)
		if l == ch.prefix.Bits {
			cur = ch
			continue
		}
		// k diverges (or ends) inside ch's edge; everything below ch shares
		// ch.prefix, so l is the best this subtree offers.
		return l
	}
}

// VisitMatches calls fn for every stored prefix of k, shallowest first, until
// fn returns false. The walk itself allocates nothing.
func (t *Trie[V]) VisitMatches(k Key, fn func(Key, V) bool) {
	cur := &t.root
	for {
		if cur.hasVal && !fn(cur.prefix, cur.val) {
			return
		}
		if cur.prefix.Bits == k.Bits {
			return
		}
		ch := cur.child[k.Bit(cur.prefix.Bits)]
		if ch == nil || ch.prefix.Bits > k.Bits || commonBits(k, ch.prefix) != ch.prefix.Bits {
			return
		}
		cur = ch
	}
}

// VisitSubtree calls fn for every stored prefix that has p as a prefix, in
// sorted order (Key.Compare: a prefix sorts before its extensions), until fn
// returns false.
func (t *Trie[V]) VisitSubtree(p Key, fn func(Key, V) bool) {
	cur := &t.root
	for cur.prefix.Bits < p.Bits {
		ch := cur.child[p.Bit(cur.prefix.Bits)]
		if ch == nil {
			return
		}
		l := commonBits(p, ch.prefix)
		if l < p.Bits && l < ch.prefix.Bits {
			return
		}
		cur = ch
	}
	cur.visit(fn)
}

// Visit calls fn for every stored prefix in sorted order until fn returns
// false.
func (t *Trie[V]) Visit(fn func(Key, V) bool) { t.root.visit(fn) }

func (n *trieNode[V]) visit(fn func(Key, V) bool) bool {
	if n.hasVal && !fn(n.prefix, n.val) {
		return false
	}
	if n.child[0] != nil && !n.child[0].visit(fn) {
		return false
	}
	if n.child[1] != nil && !n.child[1].visit(fn) {
		return false
	}
	return true
}
