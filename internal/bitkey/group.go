package bitkey

import (
	"fmt"
	"strings"
)

// Group is a CLASH key group: the set of all N-bit identifier keys whose
// first Depth bits equal Prefix. The paper writes a group in wildcard
// notation, e.g. "0110*" for the group with prefix 0110 at depth 4.
//
// A Group is identified by its prefix alone; the total key length N is a
// property of the key space, not of the group, and is supplied where needed
// (e.g. when expanding the virtual key).
type Group struct {
	// Prefix holds the Depth prefix bits of the group.
	Prefix Key
}

// NewGroup builds a group from a prefix key. The group's depth is the prefix
// length.
func NewGroup(prefix Key) Group { return Group{Prefix: prefix} }

// ParseGroup parses wildcard notation such as "0110*" (the trailing '*' is
// optional) into a Group.
func ParseGroup(s string) (Group, error) {
	s = strings.TrimSuffix(s, "*")
	k, err := Parse(s)
	if err != nil {
		return Group{}, err
	}
	return Group{Prefix: k}, nil
}

// MustParseGroup is like ParseGroup but panics on error.
func MustParseGroup(s string) Group {
	g, err := ParseGroup(s)
	if err != nil {
		panic(err)
	}
	return g
}

// Depth returns the group's depth d (the number of significant prefix bits).
func (g Group) Depth() int { return g.Prefix.Bits }

// String renders the group in the paper's wildcard notation ("0110*").
func (g Group) String() string {
	return string(g.AppendString(make([]byte, 0, g.Prefix.Bits+1)))
}

// AppendString appends the group's wildcard notation (String) to b without
// building an intermediate string.
func (g Group) AppendString(b []byte) []byte {
	for i := 0; i < g.Prefix.Bits; i++ {
		b = append(b, '0'+byte(g.Prefix.Bit(i)))
	}
	return append(b, '*')
}

// Contains reports whether identifier key k belongs to the group, i.e. the
// group prefix is a prefix of k.
func (g Group) Contains(k Key) bool { return k.HasPrefix(g.Prefix) }

// ContainsGroup reports whether other is a (not necessarily strict) subgroup
// of g.
func (g Group) ContainsGroup(other Group) bool { return other.Prefix.HasPrefix(g.Prefix) }

// Equal reports whether two groups denote the same prefix.
func (g Group) Equal(other Group) bool { return g.Prefix.Equal(other.Prefix) }

// VirtualKey returns the group's N-bit virtual key: the prefix bits followed
// by N-d zero bits, as a Key of length n. Applying the DHT hash to this key
// yields the hash key that locates the group's server.
func (g Group) VirtualKey(n int) (Key, error) {
	if n < g.Prefix.Bits || n > MaxBits {
		return Key{}, fmt.Errorf("%w: expand depth-%d group to %d bits", ErrBadLength, g.Prefix.Bits, n)
	}
	padded, err := g.Prefix.Padded(n)
	if err != nil {
		return Key{}, err
	}
	return Key{Value: padded, Bits: n}, nil
}

// Split returns the two depth d+1 subgroups obtained by appending a 0 bit
// (left child) and a 1 bit (right child) to the group prefix. Per the paper,
// the left child's virtual key expands to the same N-bit value as the parent
// (and therefore maps to the same server), while the right child most likely
// maps elsewhere.
func (g Group) Split() (left, right Group, err error) {
	l, err := g.Prefix.Extend(0)
	if err != nil {
		return Group{}, Group{}, err
	}
	r, err := g.Prefix.Extend(1)
	if err != nil {
		return Group{}, Group{}, err
	}
	return Group{Prefix: l}, Group{Prefix: r}, nil
}

// Parent returns the depth d-1 group obtained by dropping the last prefix
// bit, and false if the group is already the root (depth 0).
func (g Group) Parent() (Group, bool) {
	if g.Prefix.Bits == 0 {
		return Group{}, false
	}
	p, err := g.Prefix.Prefix(g.Prefix.Bits - 1)
	if err != nil {
		return Group{}, false
	}
	return Group{Prefix: p}, true
}

// IsLeftChild reports whether the group's last prefix bit is 0 (i.e. it is
// the child that maps back to its parent's server). The root is not a child
// of anything and returns false.
func (g Group) IsLeftChild() bool {
	return g.Prefix.Bits > 0 && g.Prefix.Value&1 == 0
}
