package core

import (
	"errors"
	"testing"
	"time"

	"clash/internal/bitkey"
)

// scriptedMap returns a MapFunc that maps successive virtual keys to the
// provided server IDs in order, falling back to fallback afterwards.
func scriptedMap(fallback ServerID, targets ...ServerID) MapFunc {
	i := 0
	return func(bitkey.Key) (ServerID, error) {
		if i < len(targets) {
			t := targets[i]
			i++
			return t, nil
		}
		return fallback, nil
	}
}

func mustServer(t *testing.T, id ServerID, bits int) *Server {
	t.Helper()
	s, err := NewServer(id, bits)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// activeSnapshot returns the replicable state of g if g is active on s.
func activeSnapshot(s *Server, g bitkey.Group) (GroupSnapshot, bool) {
	for _, snap := range s.SnapshotActive(nil) {
		if snap.Group.Equal(g) {
			return snap, true
		}
	}
	return GroupSnapshot{}, false
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer("", 24); err == nil {
		t.Error("empty id accepted, want error")
	}
	if _, err := NewServer("s1", 0); err == nil {
		t.Error("zero key bits accepted, want error")
	}
}

func TestBootstrapAndManagesKey(t *testing.T) {
	s := mustServer(t, "s0", 7)
	if err := s.Bootstrap(bitkey.MustParseGroup("011*")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bootstrap(bitkey.MustParseGroup("011*")); !errors.Is(err, ErrAlreadyManaged) {
		t.Errorf("duplicate bootstrap err = %v, want ErrAlreadyManaged", err)
	}
	if g, ok := s.ManagesKey(bitkey.MustParse("0110101")); !ok || g.String() != "011*" {
		t.Errorf("ManagesKey = %v,%v", g, ok)
	}
	if _, ok := s.ManagesKey(bitkey.MustParse("1110101")); ok {
		t.Error("key outside the root group should not be managed")
	}
	if err := s.Bootstrap(bitkey.MustParseGroup("00000000*")); !errors.Is(err, ErrDepthRange) {
		t.Errorf("over-deep bootstrap err = %v, want ErrDepthRange", err)
	}
}

// TestSplitTreeFigure1 reproduces the paper's Figure 1: starting from the
// key group "011*" on s0, successive splits place "0110*" on s0, "01111*" on
// s5, "011100*" on s12 and "011101*" on s7.
func TestSplitTreeFigure1(t *testing.T) {
	const bits = 7
	s0 := mustServer(t, "s0", bits)
	s12 := mustServer(t, "s12", bits)
	s5 := mustServer(t, "s5", bits)
	s7 := mustServer(t, "s7", bits)

	if err := s0.Bootstrap(bitkey.MustParseGroup("011*")); err != nil {
		t.Fatal(err)
	}

	// s0 overloads and splits "011*": keeps "0110*", sends "0111*" to s12.
	res, err := s0.ExecuteSplit(bitkey.MustParseGroup("011*"), scriptedMap("s12"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfer.Group.String() != "0111*" || res.Transfer.To != "s12" {
		t.Fatalf("unexpected transfer: %+v", res.Transfer)
	}
	if res.Kept.String() != "0110*" {
		t.Fatalf("kept %v, want 0110*", res.Kept)
	}
	if err := s12.HandleAcceptKeyGroup(res.Transfer.Group, res.Transfer.Parent); err != nil {
		t.Fatal(err)
	}

	// s12 splits "0111*": keeps "01110*", sends "01111*" to s5.
	res, err = s12.ExecuteSplit(bitkey.MustParseGroup("0111*"), scriptedMap("s5"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s5.HandleAcceptKeyGroup(res.Transfer.Group, res.Transfer.Parent); err != nil {
		t.Fatal(err)
	}
	if res.Transfer.Group.String() != "01111*" {
		t.Fatalf("transfer %v, want 01111*", res.Transfer.Group)
	}

	// s12 splits "01110*": keeps "011100*", sends "011101*" to s7.
	res, err = s12.ExecuteSplit(bitkey.MustParseGroup("01110*"), scriptedMap("s7"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s7.HandleAcceptKeyGroup(res.Transfer.Group, res.Transfer.Parent); err != nil {
		t.Fatal(err)
	}

	wantActive := map[*Server][]string{
		s0:  {"0110*"},
		s12: {"011100*"},
		s5:  {"01111*"},
		s7:  {"011101*"},
	}
	for srv, want := range wantActive {
		got := srv.ActiveGroups()
		if len(got) != len(want) {
			t.Fatalf("%s active groups = %v, want %v", srv.id, got, want)
		}
		for i := range want {
			if got[i].String() != want[i] {
				t.Errorf("%s active[%d] = %v, want %v", srv.id, i, got[i], want[i])
			}
		}
		if err := srv.Validate(); err != nil {
			t.Errorf("%s invariant violated: %v", srv.id, err)
		}
	}

	// Every 7-bit key with prefix 011 must be managed by exactly one of the
	// four servers.
	servers := []*Server{s0, s12, s5, s7}
	for v := uint64(0); v < 1<<bits; v++ {
		k := bitkey.MustNew(v, bits)
		if !bitkey.MustParseGroup("011*").Contains(k) {
			continue
		}
		owners := 0
		for _, srv := range servers {
			if _, ok := srv.ManagesKey(k); ok {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %v managed by %d servers, want 1", k, owners)
		}
	}
}

// TestServerTableFigure2 reproduces the paper's Figure 2 Server Work Table
// for the hypothetical server s25 and exercises the three ACCEPT_OBJECT
// cases described in §5.
func TestServerTableFigure2(t *testing.T) {
	const bits = 7
	s25 := mustServer(t, "s25", bits)
	if err := s25.Bootstrap(bitkey.MustParseGroup("011*")); err != nil {
		t.Fatal(err)
	}
	// Entry 2: "01011*" was accepted from parent s22.
	if err := s25.HandleAcceptKeyGroup(bitkey.MustParseGroup("01011*"), "s22"); err != nil {
		t.Fatal(err)
	}
	// Row 1: splitting "011*" sent "0111*" to s45.
	if _, err := s25.ExecuteSplit(bitkey.MustParseGroup("011*"), scriptedMap("s45")); err != nil {
		t.Fatal(err)
	}
	// Row 4: splitting "0110*" sent "0111 0*"... sent "01101*" to s11.
	if _, err := s25.ExecuteSplit(bitkey.MustParseGroup("0110*"), scriptedMap("s11")); err != nil {
		t.Fatal(err)
	}
	// Row 2→3: splitting "01011*" sent "010111*" to s26.
	if _, err := s25.ExecuteSplit(bitkey.MustParseGroup("01011*"), scriptedMap("s26")); err != nil {
		t.Fatal(err)
	}

	type row struct {
		group      string
		depth      int
		parentSelf bool
		parent     ServerID
		rightChild ServerID
		active     bool
		root       bool
	}
	want := []row{
		{"011*", 3, false, NoServer, "s45", false, true},
		{"0110*", 4, true, "s25", "s11", false, false},
		{"01011*", 5, false, "s22", "s26", false, false},
		{"01100*", 5, true, "s25", NoServer, true, false},
		{"010110*", 6, true, "s25", NoServer, true, false},
	}
	got := s25.Entries()
	if len(got) != len(want) {
		t.Fatalf("table has %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Group.String() != w.group || g.Depth() != w.depth {
			t.Errorf("row %d group/depth = %s/%d, want %s/%d", i, g.Group.String(), g.Depth(), w.group, w.depth)
		}
		if g.Active != w.active {
			t.Errorf("row %d (%s) active = %v, want %v", i, w.group, g.Active, w.active)
		}
		if g.IsRoot != w.root {
			t.Errorf("row %d (%s) root = %v, want %v", i, w.group, g.IsRoot, w.root)
		}
		if w.root {
			if g.Parent != NoServer {
				t.Errorf("row %d (%s) parent = %v, want root (-1)", i, w.group, g.Parent)
			}
		} else if g.ParentIsSelf != w.parentSelf || (!w.parentSelf && g.Parent != w.parent) {
			t.Errorf("row %d (%s) parent = %v/self=%v, want %v/self=%v",
				i, w.group, g.Parent, g.ParentIsSelf, w.parent, w.parentSelf)
		}
		if g.RightChild != w.rightChild {
			t.Errorf("row %d (%s) right child = %v, want %v", i, w.group, g.RightChild, w.rightChild)
		}
	}

	// Case (a): right depth — key "0110001" with d=5 → OK.
	resA, err := s25.HandleAcceptObject(bitkey.MustParse("0110001"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Status != StatusOK || resA.CorrectDepth != 5 || resA.Group.String() != "01100*" {
		t.Errorf("case (a) = %+v, want OK at depth 5 in 01100*", resA)
	}

	// Case (b): wrong depth, right server — key "0110001" with d=7 → OK with
	// corrected depth 5.
	resB, err := s25.HandleAcceptObject(bitkey.MustParse("0110001"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Status != StatusOKCorrected || resB.CorrectDepth != 5 {
		t.Errorf("case (b) = %+v, want OK_CORRECTED depth 5", resB)
	}

	// Case (c): wrong server — key "0101010" with d=6 → INCORRECT_DEPTH with
	// dmin = 4.
	resC, err := s25.HandleAcceptObject(bitkey.MustParse("0101010"), 6)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Status != StatusIncorrectDepth || resC.DMin != 4 {
		t.Errorf("case (c) = %+v, want INCORRECT_DEPTH dmin 4", resC)
	}

	c := s25.Counters()
	if c.ObjectsOK != 1 || c.ObjectsCorrect != 1 || c.ObjectsWrong != 1 || c.Splits != 3 {
		t.Errorf("counters = %+v", c)
	}
}

func TestHandleAcceptObjectValidation(t *testing.T) {
	s := mustServer(t, "s1", 7)
	if _, err := s.HandleAcceptObject(bitkey.MustParse("01101"), 3); !errors.Is(err, ErrBadKey) {
		t.Errorf("short key err = %v, want ErrBadKey", err)
	}
	if _, err := s.HandleAcceptObject(bitkey.MustParse("0110101"), 9); !errors.Is(err, ErrDepthRange) {
		t.Errorf("bad depth err = %v, want ErrDepthRange", err)
	}
}

func TestExecuteSplitErrors(t *testing.T) {
	s := mustServer(t, "s1", 7)
	g := bitkey.MustParseGroup("011*")
	if _, err := s.ExecuteSplit(g, scriptedMap("s2")); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("split unknown group err = %v, want ErrUnknownGroup", err)
	}
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteSplit(g, nil); err == nil {
		t.Error("nil MapFunc accepted, want error")
	}
	if _, err := s.ExecuteSplit(g, scriptedMap("s2")); err != nil {
		t.Fatal(err)
	}
	// The group is no longer active once split.
	if _, err := s.ExecuteSplit(g, scriptedMap("s2")); !errors.Is(err, ErrNotActive) {
		t.Errorf("re-split err = %v, want ErrNotActive", err)
	}
}

func TestExecuteSplitRetriesWhenMappedToSelf(t *testing.T) {
	s := mustServer(t, "s1", 7)
	g := bitkey.MustParseGroup("011*")
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	// First two right children map back to s1, the third goes to s9.
	res, err := s.ExecuteSplit(g, scriptedMap("s9", "s1", "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 2 {
		t.Errorf("retries = %d, want 2", res.Retries)
	}
	if res.Transfer.To != "s9" {
		t.Fatalf("transfer = %+v, want a transfer to s9", res.Transfer)
	}
	// s1 keeps everything except the transferred group; all keys in 011* are
	// still covered exactly once between s1's active groups and the transfer.
	if res.Transfer.Group.String() != "011111*" {
		t.Errorf("transferred group = %v, want 011111*", res.Transfer.Group)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	active := s.ActiveGroups()
	want := map[string]bool{"0110*": true, "01110*": true, "011110*": true}
	if len(active) != len(want) {
		t.Fatalf("active groups = %v", active)
	}
	for _, g := range active {
		if !want[g.String()] {
			t.Errorf("unexpected active group %v", g)
		}
	}
}

func TestExecuteSplitMaxDepth(t *testing.T) {
	s := mustServer(t, "s1", 3)
	g := bitkey.MustParseGroup("011*")
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteSplit(g, scriptedMap("s2")); !errors.Is(err, ErrMaxDepth) {
		t.Errorf("split at max depth err = %v, want ErrMaxDepth", err)
	}
}

func TestExecuteSplitExhausted(t *testing.T) {
	s := mustServer(t, "s1", 24)
	g := bitkey.MustParseGroup("0*")
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	selfOnly := func(bitkey.Key) (ServerID, error) { return "s1", nil }
	swaps := s.SnapshotSwaps()
	res, err := s.ExecuteSplit(g, selfOnly)
	if !errors.Is(err, ErrSplitExhausted) {
		t.Errorf("err = %v, want ErrSplitExhausted", err)
	}
	// No load left the server, so the split changed nothing.
	if res != nil {
		t.Errorf("result = %+v, want nil", res)
	}
	if active := s.ActiveGroups(); len(active) != 1 || !active[0].Equal(g) {
		t.Errorf("active groups = %v, want [%v]", active, g)
	}
	if c := s.Counters(); c.Splits != 0 {
		t.Errorf("splits = %d, want 0", c.Splits)
	}
	if got := s.SnapshotSwaps(); got != swaps {
		t.Errorf("snapshot swaps = %d, want %d", got, swaps)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestHandleAcceptKeyGroup(t *testing.T) {
	s := mustServer(t, "s2", 7)
	g := bitkey.MustParseGroup("0111*")
	if err := s.HandleAcceptKeyGroup(g, "s1"); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-delivery.
	if err := s.HandleAcceptKeyGroup(g, "s1"); err != nil {
		t.Errorf("re-delivery rejected: %v", err)
	}
	// After splitting it locally, accepting it again must not install an
	// overlapping entry: the active left child covers part of the range, so
	// the accept reports ErrCovered (the caller keeps only the query state).
	if _, err := s.ExecuteSplit(g, scriptedMap("s3")); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleAcceptKeyGroup(g, "s1"); !errors.Is(err, ErrCovered) {
		t.Errorf("accept of split group err = %v, want ErrCovered", err)
	}
	// With the left child released too (no active coverage left here), the
	// stale inactive linkage entry is what blocks the accept.
	left, _, err := g.Split()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.HandleRelease(left); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleAcceptKeyGroup(g, "s1"); !errors.Is(err, ErrAlreadyManaged) {
		t.Errorf("accept over split linkage err = %v, want ErrAlreadyManaged", err)
	}
	if err := s.HandleAcceptKeyGroup(bitkey.MustParseGroup("00000000*"), "s1"); !errors.Is(err, ErrDepthRange) {
		t.Errorf("over-deep group err = %v, want ErrDepthRange", err)
	}
}

func TestGroupLoadAccountingAndHottest(t *testing.T) {
	s := mustServer(t, "s1", 7)
	if err := s.Bootstrap(bitkey.MustParseGroup("0*")); err != nil {
		t.Fatal(err)
	}
	if err := s.Bootstrap(bitkey.MustParseGroup("10*")); err != nil {
		t.Fatal(err)
	}
	if err := s.SetGroupLoad(bitkey.MustParseGroup("0*"), 0.3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetGroupLoad(bitkey.MustParseGroup("10*"), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetGroupLoad(bitkey.MustParseGroup("11*"), 0.1); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("SetGroupLoad unknown err = %v", err)
	}
	if got := s.TotalLoad(); got < 0.79 || got > 0.81 {
		t.Errorf("TotalLoad = %g, want 0.8", got)
	}
	g, l, ok := s.HottestActiveGroup()
	if !ok || g.String() != "10*" || l != 0.5 {
		t.Errorf("HottestActiveGroup = %v %g %v", g, l, ok)
	}
	loads := s.GroupLoads()
	if loads["0*"] != 0.3 || loads["10*"] != 0.5 {
		t.Errorf("GroupLoads = %v", loads)
	}
}

func TestLoadReportsOnlyForRemoteParents(t *testing.T) {
	parent := mustServer(t, "p", 7)
	child := mustServer(t, "c", 7)
	if err := parent.Bootstrap(bitkey.MustParseGroup("01*")); err != nil {
		t.Fatal(err)
	}
	res, err := parent.ExecuteSplit(bitkey.MustParseGroup("01*"), scriptedMap("c"))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Transfer
	if err := child.HandleAcceptKeyGroup(tr.Group, tr.Parent); err != nil {
		t.Fatal(err)
	}
	if err := child.SetGroupLoad(tr.Group, 0.12); err != nil {
		t.Fatal(err)
	}

	// The child owes its parent a report; the parent (whose active group's
	// parent entry is local) owes none.
	reports := child.LoadReports()
	if len(reports) != 1 || reports[0].To != "p" || reports[0].Load != 0.12 || !reports[0].Group.Equal(tr.Group) {
		t.Fatalf("child reports = %+v", reports)
	}
	if got := parent.LoadReports(); len(got) != 0 {
		t.Errorf("parent reports = %+v, want none", got)
	}

	now := time.Unix(1000, 0)
	if err := parent.HandleLoadReport(reports[0], now); err != nil {
		t.Fatal(err)
	}
	// A report for a group the parent never split must be rejected.
	bogus := LoadReport{From: "c", To: "p", Group: bitkey.MustParseGroup("11111*"), Load: 0.5}
	if err := parent.HandleLoadReport(bogus, now); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("bogus report err = %v, want ErrUnknownGroup", err)
	}
}

func TestMergeLifecycle(t *testing.T) {
	parent := mustServer(t, "p", 7)
	child := mustServer(t, "c", 7)
	g := bitkey.MustParseGroup("01*")
	if err := parent.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	if err := parent.SetGroupLoad(g, 0.9); err != nil {
		t.Fatal(err)
	}
	res, err := parent.ExecuteSplit(g, scriptedMap("c"))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Transfer
	if err := child.HandleAcceptKeyGroup(tr.Group, tr.Parent); err != nil {
		t.Fatal(err)
	}

	now := time.Unix(0, 0)
	// Loads drop: both halves are now cold.
	if err := parent.SetGroupLoad(res.Kept, 0.10); err != nil {
		t.Fatal(err)
	}
	if err := child.SetGroupLoad(tr.Group, 0.15); err != nil {
		t.Fatal(err)
	}

	// Without a child report the parent must not propose a merge.
	if props := parent.PlanMerges(0.54, now); len(props) != 0 {
		t.Fatalf("premature merge proposals: %+v", props)
	}
	for _, rep := range child.LoadReports() {
		if err := parent.HandleLoadReport(rep, now); err != nil {
			t.Fatal(err)
		}
	}
	props := parent.PlanMerges(0.54, now)
	if len(props) != 1 {
		t.Fatalf("proposals = %+v, want 1", props)
	}
	p := props[0]
	if !p.Parent.Equal(g) || p.RightHolder != "c" || p.CombinedLoad < 0.24 || p.CombinedLoad > 0.26 {
		t.Errorf("proposal = %+v", p)
	}

	// A stale report (older than the max age) must block the merge.
	later := now.Add(time.Hour)
	if props := parent.PlanMerges(0.54, later); len(props) != 0 {
		t.Errorf("stale report still produced proposals: %+v", props)
	}

	// Combined load above the threshold must block the merge.
	if err := parent.SetGroupLoad(res.Kept, 0.52); err != nil {
		t.Fatal(err)
	}
	if props := parent.PlanMerges(0.54, now); len(props) != 0 {
		t.Errorf("hot combined load still produced proposals: %+v", props)
	}
	if err := parent.SetGroupLoad(res.Kept, 0.10); err != nil {
		t.Fatal(err)
	}

	// Execute the merge: child releases, parent reclaims.
	if err := child.HandleRelease(p.RightChild); err != nil {
		t.Fatal(err)
	}
	mr, err := parent.ExecuteMerge(p.Parent, now)
	if err != nil {
		t.Fatal(err)
	}
	if !mr.Merged.Equal(g) || mr.ReclaimedFrom != "c" || !mr.ReleasedGroup.Equal(tr.Group) {
		t.Errorf("merge result = %+v", mr)
	}
	if got := parent.ActiveGroups(); len(got) != 1 || !got[0].Equal(g) {
		t.Errorf("parent active groups after merge = %v", got)
	}
	if got := child.ActiveGroups(); len(got) != 0 {
		t.Errorf("child active groups after release = %v", got)
	}
	if parent.Counters().Merges != 1 || child.Counters().GroupsReleased != 1 {
		t.Errorf("counters: parent=%+v child=%+v", parent.Counters(), child.Counters())
	}
	// Every key in 01* is again managed exactly once (by the parent).
	for v := uint64(0); v < 1<<7; v++ {
		k := bitkey.MustNew(v, 7)
		if !g.Contains(k) {
			continue
		}
		if _, ok := parent.ManagesKey(k); !ok {
			t.Fatalf("key %v unmanaged after merge", k)
		}
	}
}

func TestMergeWithLocalRightChild(t *testing.T) {
	s := mustServer(t, "s1", 7)
	g := bitkey.MustParseGroup("01*")
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	// The right child maps back to the same server, then the next attempt
	// leaves: table has 01* (inactive), 010* (active), 011* (inactive),
	// 0110* (active) and 0111* transferred away.
	res, err := s.ExecuteSplit(g, scriptedMap("s2", "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Retries)
	}
	now := time.Unix(0, 0)
	if err := s.SetGroupLoad(bitkey.MustParseGroup("010*"), 0.05); err != nil {
		t.Fatal(err)
	}
	if err := s.SetGroupLoad(bitkey.MustParseGroup("0110*"), 0.05); err != nil {
		t.Fatal(err)
	}
	// "011*" has a remote right child (0111* on s2) with no report, so it is
	// not mergeable; "01*" has a local right child (011*) which is inactive,
	// so it is not mergeable either. No proposals yet.
	if props := s.PlanMerges(0.54, now); len(props) != 0 {
		t.Fatalf("unexpected proposals: %+v", props)
	}
	// Deliver the remote child's report; then "011*" becomes mergeable.
	rep := LoadReport{From: "s2", To: "s1", Group: bitkey.MustParseGroup("0111*"), Load: 0.02}
	if err := s.HandleLoadReport(rep, now); err != nil {
		t.Fatal(err)
	}
	props := s.PlanMerges(0.54, now)
	if len(props) != 1 || props[0].Parent.String() != "011*" {
		t.Fatalf("proposals = %+v, want merge of 011*", props)
	}
	if _, err := s.ExecuteMerge(props[0].Parent, now); err != nil {
		t.Fatal(err)
	}
	// Now "01*" has both children local and active (010* and 011*): it
	// becomes mergeable purely from local state.
	props = s.PlanMerges(0.54, now)
	if len(props) != 1 || props[0].Parent.String() != "01*" || props[0].RightHolder != "s1" {
		t.Fatalf("proposals = %+v, want local merge of 01*", props)
	}
	mr, err := s.ExecuteMerge(props[0].Parent, now)
	if err != nil {
		t.Fatal(err)
	}
	if mr.ReclaimedFrom != "s1" {
		t.Errorf("ReclaimedFrom = %v, want s1 (local)", mr.ReclaimedFrom)
	}
	active := s.ActiveGroups()
	if len(active) != 1 || active[0].String() != "01*" {
		t.Errorf("active groups = %v, want just 01*", active)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestExecuteMergeAndReleaseErrors(t *testing.T) {
	s := mustServer(t, "s1", 7)
	now := time.Unix(0, 0)
	if _, err := s.ExecuteMerge(bitkey.MustParseGroup("01*"), now); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("merge unknown err = %v", err)
	}
	if err := s.HandleRelease(bitkey.MustParseGroup("01*")); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("release unknown err = %v", err)
	}
	if err := s.Bootstrap(bitkey.MustParseGroup("01*")); err != nil {
		t.Fatal(err)
	}
	// An active (never split) group cannot be merged.
	if _, err := s.ExecuteMerge(bitkey.MustParseGroup("01*"), now); !errors.Is(err, ErrCannotMerge) {
		t.Errorf("merge active err = %v, want ErrCannotMerge", err)
	}
	// Releasing a group that has been split further fails.
	if _, err := s.ExecuteSplit(bitkey.MustParseGroup("01*"), scriptedMap("s2")); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleRelease(bitkey.MustParseGroup("01*")); !errors.Is(err, ErrNotActive) {
		t.Errorf("release split group err = %v, want ErrNotActive", err)
	}
}

func TestHandleChildMoved(t *testing.T) {
	now := time.Unix(1000, 0)
	s := mustServer(t, "s1", 8)
	if err := s.Bootstrap(bitkey.MustParseGroup("0*")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteSplit(bitkey.MustParseGroup("0*"), scriptedMap("s2")); err != nil {
		t.Fatal(err)
	}
	right := bitkey.MustParseGroup("01*")
	if err := s.HandleLoadReport(LoadReport{From: "s2", To: "s1", Group: right, Load: 0.1}, now); err != nil {
		t.Fatal(err)
	}

	// Re-homing the child to s3 must switch the holder and invalidate the
	// old holder's report: s2's reports are now stale, s3's are accepted.
	if err := s.HandleChildMoved(right, "s3"); err != nil {
		t.Fatalf("HandleChildMoved: %v", err)
	}
	if err := s.HandleLoadReport(LoadReport{From: "s2", To: "s1", Group: right, Load: 0.1}, now); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("report from old holder = %v, want stale rejection", err)
	}
	if err := s.HandleLoadReport(LoadReport{From: "s3", To: "s1", Group: right, Load: 0.2}, now); err != nil {
		t.Errorf("report from new holder: %v", err)
	}
	// Consolidation now reclaims from the new holder.
	props := s.PlanMerges(0.9, now)
	if len(props) != 1 || props[0].RightHolder != "s3" {
		t.Fatalf("PlanMerges = %+v, want right holder s3", props)
	}

	// Stale notifications are rejected.
	if err := s.HandleChildMoved(bitkey.MustParseGroup("11*"), "s4"); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("unknown parent = %v, want ErrUnknownGroup", err)
	}
	if err := s.HandleChildMoved(bitkey.MustParseGroup("00*"), "s4"); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("left child = %v, want ErrUnknownGroup", err)
	}
	if err := s.HandleChildMoved(bitkey.Group{}, "s4"); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("root group = %v, want ErrUnknownGroup", err)
	}
}

func TestAcceptKeyGroupEpochIdempotent(t *testing.T) {
	s := mustServer(t, "s2", 7)
	g := bitkey.MustParseGroup("0111*")
	if err := s.HandleAcceptKeyGroupEpoch(g, "s1", 3); err != nil {
		t.Fatal(err)
	}
	// Same-epoch re-delivery (a retried transfer whose reply was lost) is a
	// no-op success.
	if err := s.HandleAcceptKeyGroupEpoch(g, "s1", 3); err != nil {
		t.Errorf("same-epoch re-delivery rejected: %v", err)
	}
	// A newer epoch updates the linkage.
	if err := s.HandleAcceptKeyGroupEpoch(g, "s9", 5); err != nil {
		t.Fatal(err)
	}
	snap, ok := activeSnapshot(s, g)
	if !ok || snap.Parent != "s9" || snap.Epoch != 5 {
		t.Fatalf("snapshot after newer epoch = %+v, %v", snap, ok)
	}
	// A delayed duplicate of an older transfer must not regress the entry.
	if err := s.HandleAcceptKeyGroupEpoch(g, "s1", 4); err != nil {
		t.Fatal(err)
	}
	snap, _ = activeSnapshot(s, g)
	if snap.Parent != "s9" || snap.Epoch != 5 {
		t.Errorf("older epoch regressed the entry: %+v", snap)
	}
}

func TestSnapshotRestoreGroup(t *testing.T) {
	s := mustServer(t, "s1", 7)
	g := bitkey.MustParseGroup("01*")
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	snaps := s.SnapshotActive(nil)
	if len(snaps) != 1 || !snaps[0].Group.Equal(g) || !snaps[0].IsRoot {
		t.Fatalf("SnapshotActive = %+v", snaps)
	}

	// A peer restores the snapshot after s1 "crashes": fresh epoch, root
	// flag preserved, recovery counted.
	peer := mustServer(t, "s2", 7)
	installed, err := peer.RestoreGroup(snaps[0])
	if err != nil || !installed {
		t.Fatalf("RestoreGroup = %v, %v", installed, err)
	}
	got, ok := activeSnapshot(peer, g)
	if !ok || !got.IsRoot || got.Epoch != snaps[0].Epoch+1 {
		t.Fatalf("restored snapshot = %+v, %v", got, ok)
	}
	if peer.Counters().GroupsRecovered != 1 {
		t.Errorf("GroupsRecovered = %d, want 1", peer.Counters().GroupsRecovered)
	}
	// Restoring again is a silent no-op (someone got there first).
	if installed, err := peer.RestoreGroup(snaps[0]); err != nil || installed {
		t.Errorf("second restore = %v, %v, want false, nil", installed, err)
	}
}

func TestRestoreGroupCovered(t *testing.T) {
	s := mustServer(t, "s1", 7)
	g := bitkey.MustParseGroup("01*")
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	// A stale replica of the parent of an active group must not resurrect
	// an overlapping range.
	parent := bitkey.MustParseGroup("0*")
	if installed, err := s.RestoreGroup(GroupSnapshot{Group: parent}); installed || !errors.Is(err, ErrCovered) {
		t.Errorf("restore over active child = %v, %v, want ErrCovered", installed, err)
	}
	// And a stale replica of a child of an active group is covered too.
	child := bitkey.MustParseGroup("011*")
	if installed, err := s.RestoreGroup(GroupSnapshot{Group: child}); installed || !errors.Is(err, ErrCovered) {
		t.Errorf("restore under active parent = %v, %v, want ErrCovered", installed, err)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}
