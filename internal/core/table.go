package core

import (
	"fmt"
	"sort"
	"time"

	"clash/internal/bitkey"
)

// Entry is one row of the Server Work Table (paper Figure 2). A server keeps
// one entry for every key group it manages or has managed and split: active
// entries are leaves of the logical splitting tree; inactive entries record
// the tree linkage (which server holds the right child) needed for
// consolidation.
type Entry struct {
	// Group is the key group (virtual key prefix); its depth is Group.Depth().
	Group bitkey.Group
	// Parent is the server managing the parent key group; NoServer marks a
	// root entry (the paper's ParentID = -1), which consolidation never
	// collapses past. SelfParent marks entries whose parent entry lives on
	// this same server.
	Parent ServerID
	// ParentIsSelf records that the parent entry is on this server (the
	// paper's "self" ParentID).
	ParentIsSelf bool
	// IsRoot marks administrative root entries that must never be merged
	// away.
	IsRoot bool
	// RightChild is the server that accepted the right child group when this
	// entry was split (valid only for inactive entries).
	RightChild ServerID
	// RightChildGroup is the right child group transferred at split time.
	RightChildGroup bitkey.Group
	// Active reports whether this entry is currently a leaf of the logical
	// tree (the paper's boolean Active column).
	Active bool
	// Epoch is the ownership epoch of an active entry: it increases every
	// time responsibility for the group moves between servers, so a delayed
	// duplicate of an old ACCEPT_KEYGROUP can be recognised and dropped
	// instead of regressing the entry (0 = unknown, epoch checks skipped).
	Epoch uint64

	// localLoad is the most recent measured load fraction attributable to
	// this group when it is active on this server.
	localLoad float64
	// childLoad is the most recent load reported by the right child server
	// (for inactive entries).
	childLoad float64
	// childLoadAt is when childLoad was reported.
	childLoadAt time.Time
	// hasChildLoad records whether any child report has arrived yet.
	hasChildLoad bool
}

// Depth returns the entry's depth.
func (e *Entry) Depth() int { return e.Group.Depth() }

// clone returns a copy safe to hand to callers.
func (e *Entry) clone() Entry {
	c := *e
	return c
}

// entryIsActive is the predicate the hot path passes to the trie; as a
// non-capturing function it costs no allocation per lookup.
func entryIsActive(e *Entry) bool { return e.Active }

// Table is the Server Work Table: the set of key-group entries managed by one
// CLASH server, indexed by group prefix in a bit-trie so that the per-packet
// operations (activeEntryFor, longestPrefixMatch) are a single O(depth),
// zero-allocation walk instead of one map probe per candidate depth. Table is
// not safe for concurrent use; Server provides the synchronisation.
type Table struct {
	keyBits int
	entries *bitkey.Trie[*Entry]
}

// NewTable creates an empty table for an N-bit identifier key space.
func NewTable(keyBits int) (*Table, error) {
	if keyBits < 1 || keyBits > bitkey.MaxBits {
		return nil, fmt.Errorf("%w: %d", bitkey.ErrBadLength, keyBits)
	}
	return &Table{keyBits: keyBits, entries: bitkey.NewTrie[*Entry]()}, nil
}

// KeyBits returns the identifier key length N.
func (t *Table) KeyBits() int { return t.keyBits }

// get returns the entry for a group, if present.
func (t *Table) get(g bitkey.Group) (*Entry, bool) {
	return t.entries.Get(g.Prefix)
}

// put inserts or replaces an entry.
func (t *Table) put(e *Entry) { t.entries.Put(e.Group.Prefix, e) }

// remove deletes an entry.
func (t *Table) remove(g bitkey.Group) { t.entries.Delete(g.Prefix) }

// forEach visits every entry in prefix order.
func (t *Table) forEach(fn func(*Entry) bool) {
	t.entries.Visit(func(_ bitkey.Key, e *Entry) bool { return fn(e) })
}

// Entries returns a copy of all entries sorted by (depth, prefix) — the shape
// of the paper's Figure 2 table.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.entries.Len())
	t.forEach(func(e *Entry) bool {
		out = append(out, e.clone())
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depth() != out[j].Depth() {
			return out[i].Depth() < out[j].Depth()
		}
		return out[i].Group.Prefix.Compare(out[j].Group.Prefix) < 0
	})
	return out
}

// ActiveGroups returns the groups of all active (leaf) entries, sorted by
// prefix (the trie's visit order is exactly Key.Compare order).
func (t *Table) ActiveGroups() []bitkey.Group {
	var out []bitkey.Group
	t.forEach(func(e *Entry) bool {
		if e.Active {
			out = append(out, e.Group)
		}
		return true
	})
	return out
}

// activeEntryFor returns the active entry whose group contains key k. At most
// one can exist because active groups are prefix-free. One trie walk, zero
// allocations.
//
//clash:hotpath
func (t *Table) activeEntryFor(k bitkey.Key) (*Entry, bool) {
	_, e, ok := t.entries.LongestMatchWhere(k, entryIsActive)
	return e, ok
}

// longestPrefixMatch returns the length of the longest common prefix between
// k and any entry's group prefix (the paper's dmin in the INCORRECT_DEPTH
// reply). One trie walk, zero allocations.
//
//clash:hotpath
func (t *Table) longestPrefixMatch(k bitkey.Key) int {
	return t.entries.MaxCommonPrefix(k)
}

// coveredBy reports whether installing g as a new active entry would violate
// prefix-freeness: an active ancestor already covers g's range, or active
// descendants of g exist on this server. Either way the range is (at least
// partly) served here already, so a stale transfer or replica promotion must
// not resurrect g.
func (t *Table) coveredBy(g bitkey.Group) bool {
	if _, e, ok := t.entries.LongestMatchWhere(g.Prefix, entryIsActive); ok && e.Depth() < g.Depth() {
		return true
	}
	covered := false
	t.entries.VisitSubtree(g.Prefix, func(_ bitkey.Key, e *Entry) bool {
		if e.Active && e.Depth() > g.Depth() {
			covered = true
			return false
		}
		return true
	})
	return covered
}
