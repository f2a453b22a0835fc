package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"clash/internal/bitkey"
)

// LegacyServer is the original single-mutex CLASH server: every operation —
// including the ACCEPT_OBJECT hot path — funnels through one lock, with no
// read snapshot and no counter cells. It is kept verbatim as the behavioural
// oracle for Server's parity property test.
type LegacyServer struct {
	mu              sync.Mutex
	id              ServerID
	table           *Table
	counters        Counters
	maxSplitRetries int
	reportMaxAge    time.Duration
}

// NewLegacyServer creates a single-lock CLASH server for an N-bit identifier
// key space with the same defaults as NewServer (16 split retries, 15-minute
// report age).
func NewLegacyServer(id ServerID, keyBits int) (*LegacyServer, error) {
	if id == NoServer {
		return nil, fmt.Errorf("clash: server id must not be empty")
	}
	table, err := NewTable(keyBits)
	if err != nil {
		return nil, err
	}
	return &LegacyServer{
		id:              id,
		table:           table,
		maxSplitRetries: 16,
		reportMaxAge:    15 * time.Minute,
	}, nil
}

// ID returns the server's identity.
func (s *LegacyServer) ID() ServerID { return s.id }

// KeyBits returns the identifier key length N.
func (s *LegacyServer) KeyBits() int { return s.table.KeyBits() }

// Counters returns a snapshot of the protocol counters.
func (s *LegacyServer) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Bootstrap installs a root key group on this server.
func (s *LegacyServer) Bootstrap(g bitkey.Group) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.Depth() > s.table.KeyBits() {
		return fmt.Errorf("%w: depth %d > %d", ErrDepthRange, g.Depth(), s.table.KeyBits())
	}
	if _, ok := s.table.get(g); ok {
		return fmt.Errorf("%w: %v", ErrAlreadyManaged, g)
	}
	s.table.put(&Entry{Group: g, Parent: NoServer, IsRoot: true, Active: true})
	return nil
}

// Entries returns the Server Work Table rows sorted by depth then prefix.
func (s *LegacyServer) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Entries()
}

// ActiveGroups returns the key groups this server currently manages.
func (s *LegacyServer) ActiveGroups() []bitkey.Group {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.ActiveGroups()
}

// ManagesKey reports whether some active group on this server contains k.
func (s *LegacyServer) ManagesKey(k bitkey.Key) (bitkey.Group, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table.activeEntryFor(k)
	if !ok {
		return bitkey.Group{}, false
	}
	return e.Group, true
}

// Validate checks the table invariants (active groups are prefix-free).
func (s *LegacyServer) Validate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.validateActivePrefixFree()
}

// HandleAcceptObject processes an ACCEPT_OBJECT request under the single
// table lock.
func (s *LegacyServer) HandleAcceptObject(k bitkey.Key, estimatedDepth int) (AcceptObjectResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acceptObjectLocked(k, estimatedDepth)
}

// HandleAcceptObjectBatch processes a vector of ACCEPT_OBJECT requests under
// a single lock acquisition.
func (s *LegacyServer) HandleAcceptObjectBatch(keys []bitkey.Key, depths []int) (results []AcceptObjectResult, errs []error) {
	if len(depths) != len(keys) {
		panic("clash: batch keys/depths length mismatch")
	}
	results = make([]AcceptObjectResult, len(keys))
	errs = make([]error, len(keys))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		results[i], errs[i] = s.acceptObjectLocked(k, depths[i])
	}
	return results, errs
}

// acceptObjectLocked is the ACCEPT_OBJECT state machine; s.mu must be held.
func (s *LegacyServer) acceptObjectLocked(k bitkey.Key, estimatedDepth int) (AcceptObjectResult, error) {
	if k.Bits != s.table.KeyBits() {
		return AcceptObjectResult{}, fmt.Errorf("%w: key %d bits, want %d", ErrBadKey, k.Bits, s.table.KeyBits())
	}
	if estimatedDepth < 0 || estimatedDepth > k.Bits {
		return AcceptObjectResult{}, fmt.Errorf("%w: %d", ErrDepthRange, estimatedDepth)
	}
	entry, ok := s.table.activeEntryFor(k)
	if !ok {
		s.counters.ObjectsWrong++
		return AcceptObjectResult{
			Status: StatusIncorrectDepth,
			DMin:   s.table.longestPrefixMatch(k),
		}, nil
	}
	if entry.Depth() == estimatedDepth {
		s.counters.ObjectsOK++
		return AcceptObjectResult{Status: StatusOK, Group: entry.Group, CorrectDepth: entry.Depth()}, nil
	}
	s.counters.ObjectsCorrect++
	return AcceptObjectResult{Status: StatusOKCorrected, Group: entry.Group, CorrectDepth: entry.Depth()}, nil
}

// SetGroupLoad records the measured load fraction for an active group.
func (s *LegacyServer) SetGroupLoad(g bitkey.Group, loadFraction float64) error {
	s.mu.Lock()
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
func (s *LegacyServer) GroupLoads() map[string]float64 {
	s.mu.Lock()
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

// TotalLoad returns the sum of the recorded loads of all active groups.
func (s *LegacyServer) TotalLoad() float64 {
	s.mu.Lock()
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
func (s *LegacyServer) HottestActiveGroup() (bitkey.Group, float64, bool) {
	s.mu.Lock()
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

// ExecuteSplit splits an overloaded active key group (paper §5).
func (s *LegacyServer) ExecuteSplit(g bitkey.Group, mapFn MapFunc) (*SplitResult, error) {
	if mapFn == nil {
		return nil, fmt.Errorf("clash: nil MapFunc")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	entry, ok := s.table.get(g)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownGroup, g)
	}
	if !entry.Active {
		return nil, fmt.Errorf("%w: %v", ErrNotActive, g)
	}

	result := &SplitResult{Split: g}
	cur := entry
	for attempt := 0; ; attempt++ {
		if cur.Depth() >= s.table.KeyBits() {
			result.Kept = cur.Group
			return result, fmt.Errorf("%w: group %v", ErrMaxDepth, cur.Group)
		}
		if attempt >= s.maxSplitRetries {
			result.Kept = cur.Group
			return result, fmt.Errorf("%w: group %v after %d attempts", ErrSplitExhausted, g, attempt)
		}
		left, right, err := cur.Group.Split()
		if err != nil {
			return nil, err
		}
		vkey, err := right.VirtualKey(s.table.KeyBits())
		if err != nil {
			return nil, err
		}
		target, err := mapFn(vkey)
		if err != nil {
			return nil, fmt.Errorf("map right child %v: %w", right, err)
		}

		half := cur.localLoad / 2
		cur.Active = false
		cur.RightChild = target
		cur.RightChildGroup = right
		cur.localLoad = 0

		leftEntry := &Entry{
			Group:        left,
			Parent:       s.id,
			ParentIsSelf: true,
			Active:       true,
			localLoad:    half,
		}
		s.table.put(leftEntry)
		s.counters.Splits++

		if target != s.id {
			result.Kept = left
			result.Transfers = append(result.Transfers, Transfer{Group: right, To: target, Parent: s.id})
			return result, nil
		}

		result.Retries++
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

// HandleAcceptKeyGroup processes an ACCEPT_KEYGROUP message with no epoch.
func (s *LegacyServer) HandleAcceptKeyGroup(g bitkey.Group, parent ServerID) error {
	return s.HandleAcceptKeyGroupEpoch(g, parent, 0)
}

// HandleAcceptKeyGroupEpoch processes an ACCEPT_KEYGROUP message.
func (s *LegacyServer) HandleAcceptKeyGroupEpoch(g bitkey.Group, parent ServerID, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.Depth() > s.table.KeyBits() {
		return fmt.Errorf("%w: depth %d", ErrDepthRange, g.Depth())
	}
	if e, ok := s.table.get(g); ok {
		if e.Active {
			if epoch != 0 && e.Epoch != 0 && epoch < e.Epoch {
				return nil
			}
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
	s.counters.GroupsAccepted++
	return nil
}

// SnapshotGroup captures the replicable state of one active entry.
func (s *LegacyServer) SnapshotGroup(g bitkey.Group) (GroupSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table.get(g)
	if !ok || !e.Active {
		return GroupSnapshot{}, false
	}
	return snapshotEntry(e), true
}

// SnapshotActive captures the replicable state of every active entry.
func (s *LegacyServer) SnapshotActive() []GroupSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []GroupSnapshot
	s.table.forEach(func(e *Entry) bool {
		if e.Active {
			out = append(out, snapshotEntry(e))
		}
		return true
	})
	return out
}

// RestoreGroup resurrects a key group from a replica snapshot.
func (s *LegacyServer) RestoreGroup(snap GroupSnapshot) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.counters.GroupsRecovered++
	return true, nil
}

// HandleChildMoved records that a transferred right child changed holders.
func (s *LegacyServer) HandleChildMoved(child bitkey.Group, newHolder ServerID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	parentGroup, ok := child.Parent()
	if !ok {
		return fmt.Errorf("%w: root group %v cannot move", ErrUnknownGroup, child)
	}
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

// LoadReports produces the periodic load reports this server owes parents.
func (s *LegacyServer) LoadReports() []LoadReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []LoadReport
	s.table.forEach(func(e *Entry) bool {
		if !e.Active || e.Parent == NoServer || e.ParentIsSelf || e.Parent == s.id {
			return true
		}
		out = append(out, LoadReport{From: s.id, To: e.Parent, Group: e.Group, Load: e.localLoad})
		return true
	})
	return out
}

// HandleLoadReport records a right-child load report on the parent entry.
func (s *LegacyServer) HandleLoadReport(rep LoadReport, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	parentGroup, ok := rep.Group.Parent()
	if !ok {
		return fmt.Errorf("%w: report for root group %v", ErrUnknownGroup, rep.Group)
	}
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

// PlanMerges returns the consolidation opportunities, coldest first.
func (s *LegacyServer) PlanMerges(mergeThreshold float64, now time.Time) []MergeProposal {
	s.mu.Lock()
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

// ProposeMerge builds the consolidation proposal for one parent entry.
func (s *LegacyServer) ProposeMerge(parent bitkey.Group, now time.Time) (MergeProposal, error) {
	s.mu.Lock()
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

func (s *LegacyServer) mergeCandidateLocked(e *Entry, mergeThreshold float64, now time.Time) (MergeProposal, bool) {
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
		if !e.hasChildLoad || now.Sub(e.childLoadAt) > s.reportMaxAge {
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

// ExecuteMerge consolidates a parent group after its right child released.
func (s *LegacyServer) ExecuteMerge(parent bitkey.Group, now time.Time) (*MergeResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table.get(parent)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownGroup, parent)
	}
	prop, ok := s.mergeCandidateLocked(e, 1e18, now)
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
	s.counters.Merges++
	return &MergeResult{Merged: parent, ReclaimedFrom: prop.RightHolder, ReleasedGroup: right}, nil
}

// HandleRelease processes a RELEASE_KEYGROUP message from the parent server.
func (s *LegacyServer) HandleRelease(g bitkey.Group) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table.get(g)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownGroup, g)
	}
	if !e.Active {
		return fmt.Errorf("%w: %v", ErrNotActive, g)
	}
	s.table.remove(g)
	s.counters.GroupsReleased++
	return nil
}
