// Package invariant holds CLASH's structural correctness rules as pure
// functions over a snapshot of cluster state: the active key groups tile the
// key space exactly (split and merge must preserve this), and the Chord
// ring's successor pointers follow ID order. The simulator, the live-cluster
// probes, core.Server.Validate and the end-to-end tests all check the rules
// here, so a rule means the same thing wherever it is checked.
package invariant

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"clash/internal/bitkey"
)

// Kind names the rule a violation breaks.
type Kind string

const (
	// Overlap: a group starts inside the union of the groups before it in
	// key order (ancestors before descendants), so some keys have two owners.
	Overlap Kind = "overlap"
	// Gap: keys between two groups belong to no group.
	Gap Kind = "gap"
	// TailGap: keys after the last group, or every key when there are no
	// groups, belong to no group.
	TailGap Kind = "tail gap"
	// Successor: a ring member's first successor is not the next member in
	// ID order.
	Successor Kind = "successor"
)

// Violation is one broken rule.
type Violation struct {
	Kind Kind
	// At indexes the input element the violation is reported against: the
	// overlapping group, the group after a gap, or the member with the wrong
	// successor. It is -1 for a tail gap.
	At int
	// With indexes the group that contains the overlapping group At; it is
	// -1 for every other kind.
	With   int
	Detail string
}

// String renders the violation as "kind: detail".
func (v Violation) String() string { return string(v.Kind) + ": " + v.Detail }

// Tiling checks that groups tile the key space exactly: every key belongs to
// exactly one group. Groups are compared with their prefixes left-aligned in
// 64 bits, so the result does not depend on the key length, and depth 0 (the
// whole space) and depth 64 (one key) need no special case.
func Tiling(groups []bitkey.Group) []Violation { return walk(groups, true) }

// PrefixFree checks the overlap rule alone, for a set that need not cover
// the key space, such as one server's active groups: no group lies inside
// another (for key groups, overlapping means nested).
func PrefixFree(groups []bitkey.Group) []Violation { return walk(groups, false) }

// span returns a group's first and last key, left-aligned in 64 bits.
func span(g bitkey.Group) (first, last uint64) {
	d := uint(g.Depth())
	first = g.Prefix.Value << (64 - d)
	return first, first | math.MaxUint64>>d
}

// walk visits the groups in key order, ancestors before descendants. Key
// groups are nested or disjoint, so a group that starts inside the keys
// covered so far lies inside the group that reaches furthest, and never
// extends the covered range.
func walk(groups []bitkey.Group, gaps bool) []Violation {
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		fa, _ := span(groups[a])
		fb, _ := span(groups[b])
		return cmp.Or(cmp.Compare(fa, fb), cmp.Compare(groups[a].Depth(), groups[b].Depth()))
	})
	var out []Violation
	reach := -1     // the group covering the furthest key so far
	var next uint64 // the first key after the covered range
	full := false   // the covered range runs to the last key
	for _, i := range order {
		first, last := span(groups[i])
		if full || first < next {
			out = append(out, Violation{Kind: Overlap, At: i, With: reach,
				Detail: fmt.Sprintf("%v overlaps %v", groups[i], groups[reach])})
			continue
		}
		if gaps && first > next {
			out = append(out, Violation{Kind: Gap, At: i, With: -1,
				Detail: fmt.Sprintf("keys %#016x-%#016x before %v belong to no group", next, first-1, groups[i])})
		}
		reach, next, full = i, last+1, last == math.MaxUint64
	}
	if gaps && !full {
		detail := "no group covers the key space"
		if reach >= 0 {
			detail = fmt.Sprintf("keys from %#016x after %v belong to no group", next, groups[reach])
		}
		out = append(out, Violation{Kind: TailGap, At: -1, With: -1, Detail: detail})
	}
	return out
}

// Member is one Chord ring member as the ring-order rule sees it.
type Member struct {
	Addr string
	ID   uint64
	// Successor is the address of the member's first successor; "" when it
	// has none.
	Successor string
}

// RingOrder checks that, with the members sorted by ID, each member's first
// successor is the next member, the last one wrapping to the first (a lone
// member must be its own successor).
func RingOrder(members []Member) []Violation {
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(members[a].ID, members[b].ID), cmp.Compare(members[a].Addr, members[b].Addr))
	})
	var out []Violation
	for k, i := range order {
		m, want := members[i], members[order[(k+1)%len(order)]].Addr
		if m.Successor != want {
			out = append(out, Violation{Kind: Successor, At: i, With: -1,
				Detail: fmt.Sprintf("%s: first successor %q, ring order expects %q", m.Addr, m.Successor, want)})
		}
	}
	return out
}
