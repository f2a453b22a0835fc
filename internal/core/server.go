package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/invariant"
)

// ErrSplitExhausted is returned when a split keeps mapping the right child
// back to the splitting server and the retry budget is exhausted.
var ErrSplitExhausted = errors.New("clash: split exhausted retries without finding a peer")

// MapFunc resolves the server responsible for a virtual key through the
// underlying DHT (the paper's Map(f(k'))).
type MapFunc func(virtualKey bitkey.Key) (ServerID, error)

// MaxSplitRetries bounds how many times a split re-extends the right child
// when the DHT keeps mapping it back to the splitting server.
const MaxSplitRetries = 16

// reportMaxAge is how old a right-child load report may be before it is
// considered stale and blocks consolidation: three of the paper's 5-minute
// load-check periods.
const reportMaxAge = 15 * time.Minute

// Counters are cumulative protocol statistics for one server.
type Counters struct {
	Splits         int
	Merges         int
	GroupsAccepted int
	GroupsReleased int
	// GroupsRecovered counts groups promoted from a crashed peer's replica
	// (RestoreGroup), as opposed to groups accepted in a normal transfer.
	GroupsRecovered int
	ObjectsOK       int
	ObjectsCorrect  int
	ObjectsWrong    int
}

// counterCellBits selects how many leading key bits pick an object-counter
// cell (2^4 = 16 cells).
const counterCellBits = 4

// counterCell is one set of ACCEPT_OBJECT outcome counters, updated lock-free
// by the publish path for keys whose leading bits name the cell. The trailing
// pad keeps two cells' hot atomics off one cache line, so concurrent publishes
// to disjoint prefixes do not false-share.
type counterCell struct {
	ok, corrected, wrong atomic.Uint64
	_                    [40]byte
}

// snapEntry is one work-table row inside an immutable read snapshot: just
// enough for the ACCEPT_OBJECT state machine (group identity, leaf flag).
type snapEntry struct {
	group  bitkey.Group
	active bool
}

// snapIsActive is the predicate the publish path passes to the snapshot trie;
// as a non-capturing function it costs no allocation per lookup.
func snapIsActive(e snapEntry) bool { return e.active }

// readSnapshot is an immutable copy of the routing-relevant work-table state,
// published through an atomic pointer (RCU style): the publish hot path loads
// it with one atomic read and walks it with zero locks and zero allocations,
// while mutations build a fresh snapshot under the table lock and swap it in.
type readSnapshot struct {
	entries *bitkey.Trie[snapEntry]
}

// Server is the per-node CLASH protocol state machine. It owns the Server
// Work Table and implements the split, consolidation and ACCEPT_OBJECT logic.
// It never talks to the network itself: drivers resolve DHT mappings through
// the MapFunc they pass to ExecuteSplit and deliver the messages described by
// the returned results.
//
// Server is safe for concurrent use:
//
//   - ACCEPT_OBJECT routing (HandleAcceptObject, HandleAcceptObjectBatch,
//     ManagesKey) reads an immutable snapshot of the table through an atomic
//     pointer — zero locks, zero allocations — and records outcome counters on
//     padded per-prefix counter cells, so publishes to disjoint prefixes never
//     touch the same cache line.
//   - Every other operation takes the one table lock. Structural mutations
//     (bootstrap, split, transfer, merge, release, restore) rebuild the read
//     snapshot and swap it in before releasing the lock, so no reader ever
//     sees a half-applied change and Validate()'s prefix-free invariant holds
//     for every published snapshot.
type Server struct {
	id ServerID

	// mu guards table. lockWaits counts acquisitions that found it contended.
	mu        sync.Mutex
	lockWaits atomic.Uint64
	table     *Table

	snap  atomic.Pointer[readSnapshot]
	swaps atomic.Uint64

	// cellBits is the number of leading key bits that index cells:
	// counterCellBits, or the key width when keys are shorter. Each cell is
	// its own 64-byte allocation, which the allocator aligns to 64 bytes; an
	// element of one array of cells need not start a cache line (driving
	// HandleAcceptObject from two goroutines on a 2-vCPU box, one array of
	// cells ran about 6% slower).
	cellBits int
	cells    [1 << counterCellBits]*counterCell

	// Control-plane counters (mutated under the table lock, read lock-free by
	// Counters).
	splits, merges                atomic.Uint64
	accepted, released, recovered atomic.Uint64
}

// NewServer creates a CLASH server for an N-bit identifier key space.
func NewServer(id ServerID, keyBits int) (*Server, error) {
	if id == NoServer {
		return nil, fmt.Errorf("clash: server id must not be empty")
	}
	table, err := NewTable(keyBits)
	if err != nil {
		return nil, err
	}
	s := &Server{
		id:       id,
		table:    table,
		cellBits: min(keyBits, counterCellBits),
	}
	for i := range s.cells {
		s.cells[i] = new(counterCell)
	}
	s.snap.Store(&readSnapshot{entries: bitkey.NewTrie[snapEntry]()})
	return s, nil
}

// lock acquires the table lock, counting contended acquisitions.
func (s *Server) lock() {
	if s.mu.TryLock() {
		return
	}
	s.lockWaits.Add(1)
	s.mu.Lock()
}

// cellFor returns the index of the counter cell that accounts for key k.
func (s *Server) cellFor(k bitkey.Key) int {
	if k.Bits < s.cellBits {
		return 0
	}
	return int(k.Value >> uint(k.Bits-s.cellBits))
}

// rebuildLocked rebuilds the immutable read snapshot from the master table
// and publishes it. Callers hold the table lock. Structural operations call
// it (via defer, before unlocking) so a new snapshot is visible the moment
// the lock releases; the publish path never observes a half-applied change.
func (s *Server) rebuildLocked() {
	entries := bitkey.NewTrie[snapEntry]()
	s.table.forEach(func(e *Entry) bool {
		entries.Put(e.Group.Prefix, snapEntry{group: e.Group, active: e.Active})
		return true
	})
	s.snap.Store(&readSnapshot{entries: entries})
	s.swaps.Add(1)
}

// Counters returns a snapshot of the protocol counters.
func (s *Server) Counters() Counters {
	c := Counters{
		Splits:          int(s.splits.Load()),
		Merges:          int(s.merges.Load()),
		GroupsAccepted:  int(s.accepted.Load()),
		GroupsReleased:  int(s.released.Load()),
		GroupsRecovered: int(s.recovered.Load()),
	}
	for _, cell := range s.cells {
		c.ObjectsOK += int(cell.ok.Load())
		c.ObjectsCorrect += int(cell.corrected.Load())
		c.ObjectsWrong += int(cell.wrong.Load())
	}
	return c
}

// SnapshotSwaps returns how many read-snapshot rebuilds have been published
// (one per structural mutation batch). Every operation that can change what
// SnapshotActive returns — an active group's prefix, epoch, parent or root
// flag — publishes one, so an unchanged count means an unchanged active
// shape; the overlay's delta replica pushes rely on that.
func (s *Server) SnapshotSwaps() uint64 { return s.swaps.Load() }

// ShardStat is the work-table lock's contention snapshot. The name and the
// one-row slice ShardStats returns are kept from the striped table so that
// existing readers, such as the perfbench harness, keep compiling.
type ShardStat struct {
	// LockWaits counts contended acquisitions of the table lock.
	LockWaits uint64
}

// ShardStats returns one row for the server's single table lock.
func (s *Server) ShardStats() []ShardStat {
	return []ShardStat{{LockWaits: s.lockWaits.Load()}}
}

// Bootstrap installs a root key group on this server (an administrative
// anchor; consolidation never collapses past it). It is how the initial
// partition of the key space is assigned at system start.
func (s *Server) Bootstrap(g bitkey.Group) error {
	s.lock()
	defer s.mu.Unlock()
	if g.Depth() > s.table.KeyBits() {
		return fmt.Errorf("%w: depth %d > %d", ErrDepthRange, g.Depth(), s.table.KeyBits())
	}
	if _, ok := s.table.get(g); ok {
		return fmt.Errorf("%w: %v", ErrAlreadyManaged, g)
	}
	s.table.put(&Entry{Group: g, Parent: NoServer, IsRoot: true, Active: true})
	s.rebuildLocked()
	return nil
}

// Entries returns the Server Work Table rows sorted by depth then prefix
// (the layout of the paper's Figure 2).
func (s *Server) Entries() []Entry {
	s.lock()
	defer s.mu.Unlock()
	return s.table.Entries()
}

// ActiveGroups returns the key groups this server currently manages (the
// leaves of its part of the logical tree).
func (s *Server) ActiveGroups() []bitkey.Group {
	s.lock()
	defer s.mu.Unlock()
	return s.table.ActiveGroups()
}

// ManagesKey reports whether some active group on this server contains k,
// and returns that group. It reads the published snapshot: zero locks, zero
// allocations.
func (s *Server) ManagesKey(k bitkey.Key) (bitkey.Group, bool) {
	snap := s.snap.Load()
	_, e, ok := snap.entries.LongestMatchWhere(k, snapIsActive)
	if !ok {
		return bitkey.Group{}, false
	}
	return e.group, true
}

// Validate checks the table invariant: the active groups are prefix-free.
func (s *Server) Validate() error {
	s.lock()
	groups := s.table.ActiveGroups()
	s.mu.Unlock()
	return prefixFree(groups)
}

// prefixFree reports the first overlap among one server's active groups.
func prefixFree(groups []bitkey.Group) error {
	if vs := invariant.PrefixFree(groups); len(vs) > 0 {
		return fmt.Errorf("core: active groups not prefix-free: %v", vs[0])
	}
	return nil
}

// objDeltas accumulates one cell's object-counter increments so a batch
// flushes one atomic add per touched counter instead of one per key.
type objDeltas struct {
	ok, corrected, wrong uint64
}

// flush adds the accumulated deltas to a cell's atomic counters.
func (d *objDeltas) flush(cell *counterCell) {
	if d.ok != 0 {
		cell.ok.Add(d.ok)
	}
	if d.corrected != 0 {
		cell.corrected.Add(d.corrected)
	}
	if d.wrong != 0 {
		cell.wrong.Add(d.wrong)
	}
}

// HandleAcceptObject processes an ACCEPT_OBJECT request carrying an
// identifier key and the client's estimated depth, implementing the paper's
// three cases:
//
//	(a) right depth            → OK
//	(b) wrong depth, right server → OK with corrected depth
//	(c) wrong server           → INCORRECT_DEPTH with the longest prefix match
//
// The routing decision reads the published table snapshot — no lock is taken
// and nothing is allocated — so concurrent publishes scale across cores.
//
//clash:hotpath
func (s *Server) HandleAcceptObject(k bitkey.Key, estimatedDepth int) (AcceptObjectResult, error) {
	var d objDeltas
	res, err := s.acceptOnSnapshot(s.snap.Load(), k, estimatedDepth, &d)
	if err == nil {
		d.flush(s.cells[s.cellFor(k)])
	}
	return res, err
}

// HandleAcceptObjectBatch processes a vector of ACCEPT_OBJECT requests
// against one snapshot load (the server side of the batched publish path).
// Keys are grouped per counter cell as they stream through, so the batch
// performs at most one atomic add per touched cell counter rather than one
// per key, and no lock is held at any point. The caller's results[i] and
// errs[i] are set to describe keys[i]; a per-item validation failure fills
// errs[i] and leaves results[i] zero without affecting the other items.
//
//clash:hotpath
func (s *Server) HandleAcceptObjectBatch(keys []bitkey.Key, depths []int, results []AcceptObjectResult, errs []error) {
	if len(depths) != len(keys) || len(results) != len(keys) || len(errs) != len(keys) {
		panic("clash: batch keys/depths/results/errs length mismatch")
	}
	snap := s.snap.Load()
	var deltas [1 << counterCellBits]objDeltas
	for i, k := range keys {
		results[i], errs[i] = s.acceptOnSnapshot(snap, k, depths[i], &deltas[s.cellFor(k)])
	}
	for i := range deltas {
		deltas[i].flush(s.cells[i])
	}
}

// acceptOnSnapshot is the ACCEPT_OBJECT state machine evaluated against one
// immutable snapshot; outcome counts go to d.
func (s *Server) acceptOnSnapshot(snap *readSnapshot, k bitkey.Key, estimatedDepth int, d *objDeltas) (AcceptObjectResult, error) {
	if k.Bits != s.table.KeyBits() {
		return AcceptObjectResult{}, fmt.Errorf("%w: key %d bits, want %d", ErrBadKey, k.Bits, s.table.KeyBits())
	}
	if estimatedDepth < 0 || estimatedDepth > k.Bits {
		return AcceptObjectResult{}, fmt.Errorf("%w: %d", ErrDepthRange, estimatedDepth)
	}
	_, e, ok := snap.entries.LongestMatchWhere(k, snapIsActive)
	if !ok {
		d.wrong++
		return AcceptObjectResult{
			Status: StatusIncorrectDepth,
			DMin:   snap.entries.MaxCommonPrefix(k),
		}, nil
	}
	if e.group.Depth() == estimatedDepth {
		d.ok++
		return AcceptObjectResult{Status: StatusOK, Group: e.group, CorrectDepth: e.group.Depth()}, nil
	}
	d.corrected++
	return AcceptObjectResult{Status: StatusOKCorrected, Group: e.group, CorrectDepth: e.group.Depth()}, nil
}

// SetGroupLoad records the measured load fraction attributable to an active
// group for the current measurement interval. The driver (the overlay's load
// check, or the simulator) calls it before making split/merge decisions.
func (s *Server) SetGroupLoad(g bitkey.Group, loadFraction float64) error {
	s.lock()
	defer s.mu.Unlock()
	e, ok := s.table.get(g)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownGroup, g)
	}
	if !e.Active {
		return fmt.Errorf("%w: %v", ErrNotActive, g)
	}
	e.localLoad = loadFraction
	return nil
}

// GroupLoads returns the last recorded load fraction for every active group.
func (s *Server) GroupLoads() map[string]float64 {
	s.lock()
	defer s.mu.Unlock()
	out := make(map[string]float64)
	s.table.forEach(func(e *Entry) bool {
		if e.Active {
			out[e.Group.String()] = e.localLoad
		}
		return true
	})
	return out
}

// TotalLoad returns the sum of the recorded loads of all active groups — the
// server's overall load fraction.
func (s *Server) TotalLoad() float64 {
	s.lock()
	defer s.mu.Unlock()
	var sum float64
	s.table.forEach(func(e *Entry) bool {
		if e.Active {
			sum += e.localLoad
		}
		return true
	})
	return sum
}

// HottestActiveGroup returns the active group with the highest recorded load.
func (s *Server) HottestActiveGroup() (bitkey.Group, float64, bool) {
	s.lock()
	defer s.mu.Unlock()
	var (
		best     *Entry
		bestLoad float64
	)
	s.table.forEach(func(e *Entry) bool {
		if !e.Active {
			return true
		}
		if best == nil || e.localLoad > bestLoad ||
			(e.localLoad == bestLoad && e.Group.Prefix.Compare(best.Group.Prefix) < 0) {
			best = e
			bestLoad = e.localLoad
		}
		return true
	})
	if best == nil {
		return bitkey.Group{}, 0, false
	}
	return best.Group, bestLoad, true
}

// ExecuteSplit splits an overloaded active key group (paper §5). The left
// child keeps mapping to this server; the right child is transferred to the
// server the DHT maps its virtual key to. If the DHT maps the right child
// back to this server, the right child is split again (another randomised
// attempt), up to the retry budget.
//
// The returned SplitResult names the transfer the driver must deliver as an
// ACCEPT_KEYGROUP message. A split either moves a group or changes nothing:
// the right spine g+"1", g+"11", ... is mapped before the table is touched,
// so on any error (ErrMaxDepth, ErrSplitExhausted, a MapFunc error) the
// result is nil and the table, counters and read snapshot are unchanged.
func (s *Server) ExecuteSplit(g bitkey.Group, mapFn MapFunc) (*SplitResult, error) {
	if mapFn == nil {
		return nil, fmt.Errorf("clash: nil MapFunc")
	}
	s.lock()
	defer s.mu.Unlock()

	entry, ok := s.table.get(g)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownGroup, g)
	}
	if !entry.Active {
		return nil, fmt.Errorf("%w: %v", ErrNotActive, g)
	}

	// Walk the right spine until a right child maps to a peer: every
	// candidate before it maps back here and becomes a retry.
	retries := 0
	var target ServerID
	for cur := g; ; retries++ {
		if cur.Depth() >= s.table.KeyBits() {
			return nil, fmt.Errorf("%w: group %v", ErrMaxDepth, cur)
		}
		if retries >= MaxSplitRetries {
			return nil, fmt.Errorf("%w: group %v after %d attempts", ErrSplitExhausted, g, retries)
		}
		_, right, err := cur.Split()
		if err != nil {
			return nil, err
		}
		vkey, err := right.VirtualKey(s.table.KeyBits())
		if err != nil {
			return nil, err
		}
		if target, err = mapFn(vkey); err != nil {
			return nil, fmt.Errorf("map right child %v: %w", right, err)
		}
		if target != s.id {
			break
		}
		cur = right
	}

	defer s.rebuildLocked()
	result := &SplitResult{Split: g, Retries: retries}
	cur := entry
	for i := 0; ; i++ {
		left, right, _ := cur.Group.Split()
		holder := s.id
		if i == retries {
			holder = target
		}
		half := cur.localLoad / 2
		// The current group stops being a leaf and records the split linkage.
		cur.Active = false
		cur.RightChild = holder
		cur.RightChildGroup = right
		cur.localLoad = 0

		// The left child stays on this server.
		s.table.put(&Entry{
			Group:        left,
			Parent:       s.id,
			ParentIsSelf: true,
			Active:       true,
			localLoad:    half,
		})
		s.splits.Add(1)

		if i == retries {
			result.Kept = left
			result.Transfer = Transfer{Group: right, To: target, Parent: s.id}
			return result, nil
		}

		// The DHT mapped the right child back onto this server: keep it
		// locally as an active group and split it again.
		rightEntry := &Entry{
			Group:        right,
			Parent:       s.id,
			ParentIsSelf: true,
			Active:       true,
			localLoad:    half,
		}
		s.table.put(rightEntry)
		cur = rightEntry
	}
}

// HandleAcceptKeyGroup processes an ACCEPT_KEYGROUP message carrying no epoch
// information (epoch 0: apply unconditionally). See HandleAcceptKeyGroupEpoch.
func (s *Server) HandleAcceptKeyGroup(g bitkey.Group, parent ServerID) error {
	return s.HandleAcceptKeyGroupEpoch(g, parent, 0)
}

// HandleAcceptKeyGroupEpoch processes an ACCEPT_KEYGROUP message: the server
// takes over responsibility for a key group shed by parent. Per the paper a
// node must always accept (it can always shed its own load afterwards).
// Accepting a group the server already manages actively is idempotent on
// (group, epoch): a re-delivery with the same or a newer epoch refreshes the
// parent linkage, while a delayed duplicate with an older epoch is dropped
// without touching the entry. Accepting a group whose range is already
// covered by other active entries (an active ancestor, or active descendants)
// returns ErrCovered instead of installing an overlap — the caller should
// keep the message's query state locally and discard the group.
func (s *Server) HandleAcceptKeyGroupEpoch(g bitkey.Group, parent ServerID, epoch uint64) error {
	s.lock()
	defer s.mu.Unlock()
	defer s.rebuildLocked()
	if g.Depth() > s.table.KeyBits() {
		return fmt.Errorf("%w: depth %d", ErrDepthRange, g.Depth())
	}
	if e, ok := s.table.get(g); ok {
		if e.Active {
			if epoch != 0 && e.Epoch != 0 && epoch < e.Epoch {
				// A delayed duplicate of an older transfer: the entry has
				// moved on, don't regress its linkage.
				return nil
			}
			// Idempotent re-delivery.
			e.Parent = parent
			e.ParentIsSelf = parent == s.id
			if epoch > e.Epoch {
				e.Epoch = epoch
			}
			return nil
		}
		if s.table.coveredBy(g) {
			return fmt.Errorf("%w: %v", ErrCovered, g)
		}
		return fmt.Errorf("%w: %v (already split here)", ErrAlreadyManaged, g)
	}
	if s.table.coveredBy(g) {
		return fmt.Errorf("%w: %v", ErrCovered, g)
	}
	s.table.put(&Entry{
		Group:        g,
		Parent:       parent,
		ParentIsSelf: parent == s.id,
		Active:       true,
		Epoch:        epoch,
	})
	s.accepted.Add(1)
	return nil
}

// GroupSnapshot is the replicable protocol state of one active key-group
// entry: everything a peer needs to resurrect the group if this server
// crashes. The accompanying continuous-query state is extracted separately by
// the driver (the overlay bundles cq.Engine queries with each snapshot).
type GroupSnapshot struct {
	Group  bitkey.Group
	Parent ServerID
	IsRoot bool
	Epoch  uint64
}

// SnapshotActive appends the replicable state of every active entry to dst,
// in prefix order (the trie's deterministic visit order), and returns the
// extended slice; the overlay's replica push passes pooled scratch.
func (s *Server) SnapshotActive(dst []GroupSnapshot) []GroupSnapshot {
	s.lock()
	defer s.mu.Unlock()
	s.table.forEach(func(e *Entry) bool {
		if e.Active {
			dst = append(dst, snapshotEntry(e))
		}
		return true
	})
	return dst
}

func snapshotEntry(e *Entry) GroupSnapshot {
	return GroupSnapshot{Group: e.Group, Parent: e.Parent, IsRoot: e.IsRoot, Epoch: e.Epoch}
}

// RestoreGroup resurrects a key group from a replica snapshot after its
// holder crashed: the group becomes active on this server under a fresh
// ownership epoch. The bool reports whether a new entry was installed.
// Restoring a group this server already manages actively is a no-op (someone
// got there first: false, nil); a snapshot whose range is already covered by
// other active entries returns ErrCovered (install only the query state); a
// snapshot conflicting with an inactive entry returns ErrAlreadyManaged.
func (s *Server) RestoreGroup(snap GroupSnapshot) (bool, error) {
	s.lock()
	defer s.mu.Unlock()
	defer s.rebuildLocked()
	g := snap.Group
	if g.Depth() > s.table.KeyBits() {
		return false, fmt.Errorf("%w: depth %d", ErrDepthRange, g.Depth())
	}
	if e, ok := s.table.get(g); ok {
		if e.Active {
			return false, nil
		}
		if s.table.coveredBy(g) {
			return false, fmt.Errorf("%w: %v", ErrCovered, g)
		}
		return false, fmt.Errorf("%w: %v (already split here)", ErrAlreadyManaged, g)
	}
	if s.table.coveredBy(g) {
		return false, fmt.Errorf("%w: %v", ErrCovered, g)
	}
	s.table.put(&Entry{
		Group:        g,
		Parent:       snap.Parent,
		ParentIsSelf: snap.Parent == s.id,
		IsRoot:       snap.IsRoot,
		Active:       true,
		Epoch:        snap.Epoch + 1,
	})
	s.recovered.Add(1)
	return true, nil
}

// HandleChildMoved records that the right child of one of this server's
// inactive entries is now held by a different server (the overlay re-homes
// groups when DHT ownership changes). Stale child-load reports from the old
// holder are invalidated so consolidation waits for the new holder's first
// report.
func (s *Server) HandleChildMoved(child bitkey.Group, newHolder ServerID) error {
	parentGroup, ok := child.Parent()
	if !ok {
		return fmt.Errorf("%w: root group %v cannot move", ErrUnknownGroup, child)
	}
	s.lock()
	defer s.mu.Unlock()
	e, ok := s.table.get(parentGroup)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownGroup, parentGroup)
	}
	if e.Active || !e.RightChildGroup.Equal(child) {
		return fmt.Errorf("%w: %v is not a transferred right child here", ErrUnknownGroup, child)
	}
	if e.RightChild != newHolder {
		e.RightChild = newHolder
		e.hasChildLoad = false
	}
	return nil
}

// LoadReports produces the periodic load reports this server owes the parents
// of its active key groups (paper §4: leaves inform their parents of their
// current workload so parents can consolidate). Reports to itself are
// omitted — the local left-child load is read directly at merge time.
func (s *Server) LoadReports() []LoadReport {
	s.lock()
	defer s.mu.Unlock()
	var out []LoadReport
	// The trie visit is already in prefix order, matching the sort the
	// callers expect.
	s.table.forEach(func(e *Entry) bool {
		if !e.Active || e.Parent == NoServer || e.ParentIsSelf || e.Parent == s.id {
			return true
		}
		out = append(out, LoadReport{From: s.id, To: e.Parent, Group: e.Group, Load: e.localLoad})
		return true
	})
	return out
}

// HandleLoadReport records a right-child load report on the inactive parent
// entry that transferred the group.
func (s *Server) HandleLoadReport(rep LoadReport, now time.Time) error {
	parentGroup, ok := rep.Group.Parent()
	if !ok {
		return fmt.Errorf("%w: report for root group %v", ErrUnknownGroup, rep.Group)
	}
	s.lock()
	defer s.mu.Unlock()
	e, ok := s.table.get(parentGroup)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownGroup, parentGroup)
	}
	if e.Active || !e.RightChildGroup.Equal(rep.Group) || e.RightChild != rep.From {
		return fmt.Errorf("%w: stale report for %v from %s", ErrUnknownGroup, rep.Group, rep.From)
	}
	e.childLoad = rep.Load
	e.childLoadAt = now
	e.hasChildLoad = true
	return nil
}

// MergeProposal describes a consolidation opportunity: the parent group could
// reclaim its right child from the peer currently holding it.
type MergeProposal struct {
	Parent       bitkey.Group
	RightChild   bitkey.Group
	RightHolder  ServerID
	CombinedLoad float64
}

// PlanMerges returns the consolidation opportunities visible to this server:
// inactive entries whose local left child is an active leaf, whose right
// child has reported a fresh load, and whose combined load is below
// mergeThreshold (the underload threshold in the paper's experiments).
// Proposals are ordered coldest first.
func (s *Server) PlanMerges(mergeThreshold float64, now time.Time) []MergeProposal {
	s.lock()
	defer s.mu.Unlock()
	var out []MergeProposal
	s.table.forEach(func(e *Entry) bool {
		prop, ok := s.mergeCandidateLocked(e, mergeThreshold, now)
		if ok {
			out = append(out, prop)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].CombinedLoad != out[j].CombinedLoad {
			return out[i].CombinedLoad < out[j].CombinedLoad
		}
		return out[i].Parent.Prefix.Compare(out[j].Parent.Prefix) < 0
	})
	return out
}

// ProposeMerge builds the consolidation proposal for one specific parent
// entry regardless of load — the admin force-merge path. It fails when the
// pair is not structurally mergeable: the parent is still an active leaf, the
// right child was split further, the left leaf lives elsewhere, or a remote
// right holder has not reported recently enough for its identity to be
// trusted.
func (s *Server) ProposeMerge(parent bitkey.Group, now time.Time) (MergeProposal, error) {
	s.lock()
	defer s.mu.Unlock()
	e, ok := s.table.get(parent)
	if !ok {
		return MergeProposal{}, fmt.Errorf("%w: %v", ErrUnknownGroup, parent)
	}
	prop, ok := s.mergeCandidateLocked(e, math.MaxFloat64, now)
	if !ok {
		return MergeProposal{}, fmt.Errorf("%w: %v", ErrCannotMerge, parent)
	}
	return prop, nil
}

// mergeCandidateLocked evaluates one entry as a consolidation candidate; the
// caller holds the table lock.
func (s *Server) mergeCandidateLocked(e *Entry, mergeThreshold float64, now time.Time) (MergeProposal, bool) {
	if e.Active || e.RightChild == NoServer {
		return MergeProposal{}, false
	}
	left, right, err := e.Group.Split()
	if err != nil || !right.Equal(e.RightChildGroup) {
		return MergeProposal{}, false
	}
	leftEntry, ok := s.table.get(left)
	if !ok || !leftEntry.Active {
		return MergeProposal{}, false
	}
	var childLoad float64
	if e.RightChild == s.id {
		rightEntry, ok := s.table.get(right)
		if !ok || !rightEntry.Active {
			return MergeProposal{}, false
		}
		childLoad = rightEntry.localLoad
	} else {
		if !e.hasChildLoad || now.Sub(e.childLoadAt) > reportMaxAge {
			return MergeProposal{}, false
		}
		childLoad = e.childLoad
	}
	combined := leftEntry.localLoad + childLoad
	if combined > mergeThreshold {
		return MergeProposal{}, false
	}
	return MergeProposal{
		Parent:       e.Group,
		RightChild:   right,
		RightHolder:  e.RightChild,
		CombinedLoad: combined,
	}, true
}

// ExecuteMerge consolidates a parent group after the right child has been
// released by its holder (HandleRelease on the peer, or locally when the
// right child lives on this same server). The parent becomes an active leaf
// again and the child entries are removed.
func (s *Server) ExecuteMerge(parent bitkey.Group, now time.Time) (*MergeResult, error) {
	s.lock()
	defer s.mu.Unlock()
	defer s.rebuildLocked()
	e, ok := s.table.get(parent)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownGroup, parent)
	}
	prop, ok := s.mergeCandidateLocked(e, 1e18, now) // threshold already checked by PlanMerges
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrCannotMerge, parent)
	}
	left, right, err := parent.Split()
	if err != nil {
		return nil, err
	}
	leftEntry, _ := s.table.get(left)
	combined := leftEntry.localLoad
	s.table.remove(left)
	if e.RightChild == s.id {
		if rightEntry, ok := s.table.get(right); ok {
			combined += rightEntry.localLoad
			s.table.remove(right)
		}
	} else {
		combined += e.childLoad
	}
	e.Active = true
	e.RightChild = NoServer
	e.RightChildGroup = bitkey.Group{}
	e.hasChildLoad = false
	e.localLoad = combined
	s.merges.Add(1)
	return &MergeResult{Merged: parent, ReclaimedFrom: prop.RightHolder, ReleasedGroup: right}, nil
}

// HandleRelease processes a RELEASE_KEYGROUP message from the parent server
// reclaiming a previously transferred group during consolidation. It fails if
// the group has been split further on this server (the parent's view was
// stale), in which case the driver must abort the merge.
func (s *Server) HandleRelease(g bitkey.Group) error {
	s.lock()
	defer s.mu.Unlock()
	defer s.rebuildLocked()
	e, ok := s.table.get(g)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownGroup, g)
	}
	if !e.Active {
		return fmt.Errorf("%w: %v", ErrNotActive, g)
	}
	s.table.remove(g)
	s.released.Add(1)
	return nil
}
