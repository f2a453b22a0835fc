package overlay

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/chord"
	"clash/internal/clock"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/load"
	"clash/internal/wirecodec"
)

// Config parameterises an overlay node. The zero value is completed with
// paper-faithful defaults by NewNode.
type Config struct {
	// KeyBits is the identifier key length N (default 24, the paper's).
	KeyBits int
	// Space is the chord identifier space (default chord.DefaultSpace()).
	Space chord.Space
	// Model converts per-group samples into load fractions (default
	// load.DefaultModel(5000)).
	Model load.Model
	// BootstrapDepth is the depth of the initial key-space partition a
	// bootstrap node installs: 2^BootstrapDepth root groups (default 1).
	BootstrapDepth int
	// StabilizeInterval is how often Run performs chord maintenance
	// (default 250ms).
	StabilizeInterval time.Duration
	// LoadCheckInterval is the measurement window and how often Run performs
	// the load check (default 2s; the paper uses 5 minutes at its scale).
	LoadCheckInterval time.Duration
	// Clock supplies the node's time source (default the real wall clock).
	// The discrete-event simulator injects its virtual clock here, which is
	// what lets an unmodified Node run at virtual time.
	Clock clock.Clock
	// Seed derandomises the maintenance jitter: Run staggers its first
	// stabilization and load check by a pseudo-random fraction of the
	// respective interval drawn from Seed combined with the node address, so
	// a fleet booted together does not thundering-herd its maintenance, yet
	// two runs with the same seed behave identically (clashd -seed,
	// clashload -seed).
	Seed int64
	// InlineMatchPush delivers continuous-query match notifications
	// synchronously on the data path instead of from per-match goroutines.
	// The live overlay keeps the default (async, so a slow subscriber never
	// blocks packet processing); the simulator sets it to keep event
	// execution single-threaded and deterministic.
	InlineMatchPush bool
	// ReplicationFactor is how many successors receive this node's key-group
	// replicas (default 2; negative disables replication entirely). A crash
	// is survivable as long as at least one of the first ReplicationFactor
	// successors outlives the holder.
	ReplicationFactor int
}

func (c Config) withDefaults() Config {
	if c.KeyBits == 0 {
		c.KeyBits = 24
	}
	if c.Space.Bits == 0 {
		c.Space = chord.DefaultSpace()
	}
	if c.Model.Capacity == 0 {
		c.Model = load.DefaultModel(5000)
	}
	if c.BootstrapDepth == 0 {
		c.BootstrapDepth = 1
	}
	if c.StabilizeInterval == 0 {
		c.StabilizeInterval = 250 * time.Millisecond
	}
	if c.LoadCheckInterval == 0 {
		c.LoadCheckInterval = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 2
	}
	return c
}

// pendingReclaim is a consolidation attempt whose RELEASE_KEYGROUP exchange
// failed at the transport level; the outcome on the holder is unknown, so the
// attempt is retried until it resolves or the budget runs out.
type pendingReclaim struct {
	prop     core.MergeProposal
	attempts int
}

// Node is one live CLASH overlay node: a chord protocol node, the CLASH
// protocol state machine, the continuous-query engine and the load meter,
// wired to a Transport and driven by the caller-owned maintenance loop (Run,
// or Tick/LoadCheck directly for deterministic tests).
type Node struct {
	cfg    Config
	tr     Transport
	caller *caller
	susp   *suspicion
	chord  *chord.Node
	server *core.Server
	engine *cq.Engine
	meter  *load.Meter

	// obs is the installed control-plane observer (SetObserver); draining
	// marks the node in admin drain mode (Drain/Undrain).
	obs      observerRef
	draining atomic.Bool

	// spanSalt/spanSeq mint node-unique span IDs for sampled publishes
	// (nextSpanID).
	spanSalt uint64
	spanSeq  atomic.Uint64

	// repMu serialises replica snapshot+version assignment (planPush), so
	// concurrent pushes can't stamp an older snapshot with a newer version.
	// It also guards repSwaps and repAcks. Lock order: repMu before mu;
	// never the reverse.
	repMu    sync.Mutex
	repSwaps uint64       // the table's structural-change count at the last push
	repAcks  []replicaAck // what each replication target acknowledged

	// Replica pushes sent, by kind, and deltas refused (ReplicaPushes).
	repFull, repDelta, repRefused int64

	mu           sync.Mutex
	queries      map[string]storedQuery // query id → subscriber and wire record
	reclaims     []pendingReclaim
	orphans      []orphanQuery
	replicas     map[string]*replicaSet // origin addr → its replicated state
	repVersion   uint64
	repDirty     []string // queries registered or re-subscribed since the last push
	repStale     bool     // query state changed outside a registration since the last push
	incarnation  uint64
	mayPushEmpty bool // guards empty replica pushes until past the recovery window
	matchDrops   int64
	orphanDrops  int64
	joinTarget   string          // last Join contact, for islanding self-repair
	exhausted    *exhaustedSplit // the last split that ran out of retries (trySplit)

	// pushers hands async match pushes to parked matchWorkers; Close
	// releases them.
	pushers   *parked[matchPush]
	closeOnce sync.Once

	wg sync.WaitGroup
}

// NewNode creates a node on the given transport and installs its request
// handler. The node starts as a singleton ring with an empty work table; call
// BootstrapRoots on the first node of an overlay and Join on every other.
func NewNode(tr Transport, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	server, err := core.NewServer(core.ServerID(tr.Addr()), cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	engine, err := cq.NewEngine(cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	susp := newSuspicion(cfg.Clock.Now)
	// Backoff sleeps are real-clock only: under the simulator's virtual clock
	// an in-event sleep would wedge the single-threaded engine, so retries go
	// back-to-back in virtual time (sleep == nil disables the jitter draw too,
	// preserving determinism).
	var sleep func(time.Duration)
	if cfg.Clock == clock.Real() {
		//clashvet:ignore clockcheck real-clock branch only; the virtual-clock path leaves sleep nil
		sleep = time.Sleep
	}
	callerSeed := cfg.Seed ^ int64(cfg.Space.HashString(tr.Addr()))
	rc := newCaller(tr, susp, cfg.Clock.Now, sleep, callerSeed)
	n := &Node{
		cfg:         cfg,
		tr:          tr,
		caller:      rc,
		susp:        susp,
		chord:       chord.NewNode(tr.Addr(), cfg.Space, &transportRPC{c: rc}),
		server:      server,
		engine:      engine,
		meter:       load.NewMeterClock(cfg.LoadCheckInterval.Seconds(), cfg.Clock.Now),
		queries:     make(map[string]storedQuery),
		replicas:    make(map[string]*replicaSet),
		incarnation: uint64(cfg.Clock.Now().UnixNano()),
		spanSalt:    uint64(cfg.Space.HashString(tr.Addr())) << 32,
		pushers:     newParked[matchPush](),
	}
	n.chord.SetSuccessorsListener(n.successorsChanged)
	// Failure-detector verdict transitions surface as events too.
	susp.onVerdict = func(addr string, prior, cur chord.PeerState) {
		n.emit(Event{Type: EventSuspicion, Peer: addr,
			Detail: verdictString(prior) + "->" + verdictString(cur)})
	}
	// The suspicion tracker doubles as chord's health oracle: a suspected
	// (gray, possibly just slow) successor is kept for the round instead of
	// dropped on its first failed ping, so one slow peer cannot churn the
	// successor list.
	n.chord.SetHealthOracle(susp.state)
	tr.SetHandler(n.handle)
	return n, nil
}

// Addr returns the node's transport address (its identity).
func (n *Node) Addr() string { return n.tr.Addr() }

// Server exposes the CLASH state machine (read-mostly use by tests and the
// status endpoint).
func (n *Node) Server() *core.Server { return n.server }

// Engine exposes the continuous-query engine for reading (the status
// endpoint, the hub, the simulator's checks and tests). Callers must not
// mutate it: a query registered behind the node's back is in no
// registration's replica delta, so no push carries it to the successors.
func (n *Node) Engine() *cq.Engine { return n.engine }

// Successors returns the node's current chord successor list (nearest first);
// a lightweight accessor for ring-convergence checks (the full Status
// snapshot also walks the group table, the engine and the suspicion table).
func (n *Node) Successors() []chord.NodeRef { return n.chord.Successors() }

// Predecessor returns the node's current chord predecessor (zero when
// unknown).
func (n *Node) Predecessor() chord.NodeRef { return n.chord.PredecessorRef() }

// MatchDrops returns how many match notifications this node failed to
// deliver to their subscribers: refused by the subscriber, or failed to
// write. On TCP a match is one-way, so a frame the dead subscriber's kernel
// still accepted is lost without being counted; delivery stays
// at-most-once.
func (n *Node) MatchDrops() int64 { return atomic.LoadInt64(&n.matchDrops) }

// replicaCounts returns how many peer replica sets this node holds and the
// total key groups across them.
func (n *Node) replicaCounts() (origins, groups int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, set := range n.replicas {
		origins++
		groups += set.groups
	}
	return origins, groups
}

// Close stops background deliveries and closes the transport.
func (n *Node) Close() error {
	err := n.tr.Close()
	n.closeOnce.Do(n.pushers.stop)
	n.wg.Wait()
	return err
}

// BootstrapRoots installs the initial partition of the key space: all
// 2^BootstrapDepth groups at BootstrapDepth, anchored on this node. A fresh
// overlay calls it exactly once (on the node started without a join target);
// as other nodes join the ring, the ownership reconciliation in LoadCheck
// hands each root group to the node its virtual key maps to.
func (n *Node) BootstrapRoots() error {
	depth := n.cfg.BootstrapDepth
	for v := uint64(0); v < 1<<uint(depth); v++ {
		g := bitkey.NewGroup(bitkey.Key{Value: v, Bits: depth})
		if err := n.server.Bootstrap(g); err != nil {
			return err
		}
	}
	return nil
}

// Join joins the overlay through the node at bootstrap and runs an immediate
// stabilization round so the ring learns about us quickly. The contact is
// remembered: if this node ever finds itself islanded (its successor list
// decayed back to itself — e.g. every successor crashed at once, or a
// partition isolated it), Tick re-joins through it.
func (n *Node) Join(bootstrap string) error {
	n.mu.Lock()
	n.joinTarget = bootstrap
	n.mu.Unlock()
	ref := chord.NodeRef{Addr: bootstrap, ID: n.cfg.Space.HashString(bootstrap)}
	if err := n.chord.Join(ref); err != nil {
		return err
	}
	if err := n.chord.Stabilize(); err != nil {
		return err
	}
	if err := n.chord.FixAllFingers(); err != nil {
		return err
	}
	// A restarted node recovers its pre-crash key groups from the replicas
	// its successors hold (a fresh node finds none; the probe is two calls).
	n.recoverOwnState()
	return nil
}

// Rejoin re-enters the overlay through the node at bootstrap after this node
// was crashed, isolated or otherwise cut off. Unlike Join it resolves the
// ring position with a successor-chain walk (chord.Node.JoinChain) instead of
// a finger-routed lookup: after a partition the overlay can consist of
// parallel self-consistent rings, and a finger-routed lookup from inside one
// of them happily answers from the wrong ring, which is how parallel rings
// persist forever. O(ring) hops, so reserved for reintegration.
func (n *Node) Rejoin(bootstrap string) error {
	n.mu.Lock()
	n.joinTarget = bootstrap
	n.mu.Unlock()
	ref := chord.NodeRef{Addr: bootstrap, ID: n.cfg.Space.HashString(bootstrap)}
	if err := n.chord.JoinChain(ref); err != nil {
		return err
	}
	if err := n.chord.Stabilize(); err != nil {
		return err
	}
	if err := n.chord.FixAllFingers(); err != nil {
		return err
	}
	n.recoverOwnState()
	return nil
}

// FixAllFingers refreshes the node's whole chord finger table (one lookup
// per finger). The simulator's boot uses it to converge lookups without
// paying a full maintenance round per finger.
func (n *Node) FixAllFingers() error { return n.chord.FixAllFingers() }

// SetRepairContact sets the address Tick re-joins through when the node
// finds itself islanded, without joining now. Join sets it implicitly; a
// bootstrap node (which never calls Join) should be given one as soon as the
// overlay has a second member, or it can never recover from losing its whole
// successor list — and an islanded node is poison, because a chord singleton
// answers FindSuccessor with itself for every identifier.
func (n *Node) SetRepairContact(addr string) {
	n.mu.Lock()
	n.joinTarget = addr
	n.mu.Unlock()
}

// Tick runs one round of chord maintenance. The owner (Run, or a test) calls
// it periodically.
func (n *Node) Tick() {
	n.mu.Lock()
	target := n.joinTarget
	n.mu.Unlock()
	if target != "" && n.chord.Successor().Addr == n.Addr() {
		// Islanded: a singleton that once joined a ring can never be found
		// by stabilization again (nobody points at it and it points at
		// nobody), so re-enter through the remembered contact. Best effort —
		// retried every tick until the contact answers.
		_ = n.Rejoin(target)
	}
	_ = n.chord.Stabilize()
	n.chord.CheckPredecessor()
	_ = n.chord.FixFingers()
	// Ring maintenance doubles as the failure detector for replication:
	// once a dead peer's ring position has collapsed onto this node, the
	// locally held replicas of its key groups are promoted to active.
	n.recoverFromReplicas()
}

// Run drives the maintenance loop until ctx is cancelled: chord stabilization
// every StabilizeInterval and the CLASH load check every LoadCheckInterval,
// both on the configured clock. The first round of each is staggered by a
// jitter drawn deterministically from Config.Seed and the node address, so a
// fleet booted at the same instant spreads its maintenance over the interval
// instead of synchronising — and two runs with the same seed stagger
// identically.
func (n *Node) Run(ctx context.Context) {
	rng := rand.New(rand.NewSource(n.cfg.Seed ^ int64(n.cfg.Space.HashString(n.Addr()))))
	// Each loop gets its own jitter drawn from its own interval: the first
	// round fires off a timer, then the ticker takes over at the regular
	// cadence.
	stabT := n.cfg.Clock.NewTimer(time.Duration(rng.Int63n(int64(n.cfg.StabilizeInterval))) + 1)
	checkT := n.cfg.Clock.NewTimer(time.Duration(rng.Int63n(int64(n.cfg.LoadCheckInterval))) + 1)
	defer stabT.Stop()
	defer checkT.Stop()
	var stab, check clock.Ticker
	defer func() {
		if stab != nil {
			stab.Stop()
		}
		if check != nil {
			check.Stop()
		}
	}()
	stabC, checkC := stabT.C(), checkT.C()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stabC:
			if stab == nil {
				stab = n.cfg.Clock.NewTicker(n.cfg.StabilizeInterval)
				stabC = stab.C()
			}
			n.Tick()
		case <-checkC:
			if check == nil {
				check = n.cfg.Clock.NewTicker(n.cfg.LoadCheckInterval)
				checkC = check.C()
			}
			n.LoadCheck(n.cfg.Clock.Now())
		}
	}
}

// mapGroup resolves Map(f(k')) for a virtual key through the live chord ring.
func (n *Node) mapGroup(vk bitkey.Key) (core.ServerID, error) {
	ref, err := n.chord.FindSuccessor(n.cfg.Space.HashBytes(vk.Bytes()))
	if err != nil {
		return core.NoServer, err
	}
	return core.ServerID(ref.Addr), nil
}

// successorsChanged makes replicas follow ring churn: whenever the successor
// list changes, the replica state is re-pushed so the new first-k successors
// hold it (and the churn is reported on the event stream).
func (n *Node) successorsChanged(refs []chord.NodeRef) {
	ev := Event{Type: EventRingChange, Detail: fmt.Sprintf("successors=%d", len(refs))}
	if len(refs) > 0 {
		ev.Peer = refs[0].Addr
	}
	n.emit(ev)
	n.replicate(spanRef{})
}

// LoadCheck runs one CLASH load-check period (paper §5): it promotes replicas
// of dead peers, retries orphaned query placements, reconciles group
// ownership with the current ring (which re-sends any group a failed
// hand-off took back), prices every active group from the meter's packet
// rate and the engine's count of the queries stored under it, splits the
// server's hottest active group when overloaded (with a real ACCEPT_KEYGROUP
// transfer), sends load reports to parents, consolidates cold sibling pairs
// and re-pushes the node's key-group replicas to its successors.
func (n *Node) LoadCheck(now time.Time) {
	n.recoverFromReplicas()
	n.requeueOrphans()
	if n.draining.Load() {
		// Drain mode replaces the DHT reconciliation: every active group is
		// pushed off this node (to its DHT owner, or the first live successor
		// when that owner is this node), and splitting is suspended — a
		// draining node sheds state, it does not grow more.
		n.drainStep()
	} else {
		n.reconcileOwnership()
	}

	rates := n.meter.Snapshot()
	for _, g := range n.server.ActiveGroups() {
		s := load.Sample{DataRate: rates[g], Queries: n.engine.CountInGroup(g)}
		_ = n.server.SetGroupLoad(g, n.cfg.Model.Load(s))
	}
	total := n.server.TotalLoad()

	if !n.draining.Load() && total > load.OverloadFraction {
		n.trySplit()
	}
	n.sendLoadReports()
	n.tryMerge(now)
	n.gcReplicas()
	n.replicate(spanRef{})
}

// precomputeSplitTargets resolves the DHT mappings a split of g can need
// before ExecuteSplit runs, so no network I/O happens while the server
// mutex is held (ExecuteSplit calls its MapFunc with the table locked, and a
// slow peer would otherwise stall the whole data path). The candidate right
// children of a split are deterministic — g+"1", g+"11", ... while each maps
// back to this server — so the walk stops at the first foreign target.
func (n *Node) precomputeSplitTargets(g bitkey.Group) core.MapFunc {
	self := core.ServerID(n.Addr())
	targets := make(map[bitkey.Key]core.ServerID)
	cur := g
	for i := 0; i <= core.MaxSplitRetries && cur.Depth() < n.cfg.KeyBits; i++ {
		_, right, err := cur.Split()
		if err != nil {
			break
		}
		vk, err := right.VirtualKey(n.cfg.KeyBits)
		if err != nil {
			break
		}
		target, err := n.mapGroup(vk)
		if err != nil {
			break
		}
		targets[vk] = target
		if target != self {
			break
		}
		cur = right
	}
	return func(vk bitkey.Key) (core.ServerID, error) {
		if t, ok := targets[vk]; ok {
			return t, nil
		}
		return core.NoServer, errors.New("overlay: split target not resolved")
	}
}

// trySplit splits the hottest active group and delivers the resulting
// ACCEPT_KEYGROUP transfer (with extracted query state) over the wire.
// A group whose split ran out of retries, every right child on its spine
// mapping back here, is not tried again until the successor list that split
// was planned against changes: until then its spine maps the same way, and
// each try costs up to MaxSplitRetries+1 lookups.
func (n *Node) trySplit() {
	g, _, ok := n.server.HottestActiveGroup()
	if !ok {
		return
	}
	succ := n.chord.Successors()
	n.mu.Lock()
	e := n.exhausted
	n.mu.Unlock()
	if e != nil && e.group.Equal(g) && slices.Equal(e.succ, succ) {
		return
	}
	// A failed split changes nothing. ErrMaxDepth and a DHT failure are
	// tried again next period; an exhausted split waits for a new ring.
	if err := n.splitGroup(g); errors.Is(err, core.ErrSplitExhausted) {
		n.mu.Lock()
		n.exhausted = &exhaustedSplit{group: g, succ: succ}
		n.mu.Unlock()
		n.emit(Event{Type: EventSplitExhausted, Group: g.String()})
	}
}

// exhaustedSplit is the last group whose split ran out of retries and the
// successor list it was planned against.
type exhaustedSplit struct {
	group bitkey.Group
	succ  []chord.NodeRef
}

// splitGroup splits one active group and hands the right child that leaves
// to its DHT owner with the group's queries (handOff). The
// children that stay here (Kept, and the left child of each self-mapped
// retry) keep their queries in the engine, where the next load check counts
// them. It is the shared body of the overload path (trySplit) and the admin
// verb (ForceSplit).
func (n *Node) splitGroup(g bitkey.Group) error {
	res, err := n.server.ExecuteSplit(g, n.precomputeSplitTargets(g))
	if err != nil {
		return err
	}
	n.emit(Event{Type: EventSplit, Group: g.String(),
		Detail: "kept=" + res.Kept.String() + " split=" + res.Split.String()})
	// A split creates the right child fresh: its ownership chain starts at
	// epoch 1.
	tr := res.Transfer
	n.handOff(tr.Group, tr.Parent, 1, n.extractQueries(tr.Group), tr.To)
	return nil
}

// storedQuery is what the node keeps per engine query beside the engine's
// copy: where its match notifications go, and its queryState wire record.
// rec is nil from the query's registration, or a change of its subscriber,
// until a push or transfer first needs it; once built it is never modified,
// only replaced, so the pushes and transfers that share it need no copy.
type storedQuery struct {
	subscriber string
	rec        []byte
}

// setSubscriberLocked records where q's match notifications go and reports
// whether that changed. An empty subscriber leaves the stored one. A change
// drops the wire record, which the next push re-encodes with the new
// address. Callers hold n.mu.
func (n *Node) setSubscriberLocked(id, sub string) bool {
	if sub == "" || n.queries[id].subscriber == sub {
		return false
	}
	n.queries[id] = storedQuery{subscriber: sub}
	return true
}

// queryRecordLocked returns q's queryState wire record, encoding and storing
// it first when there is none yet; nil when q does not encode. q is the
// engine's copy. Callers hold n.mu.
func (n *Node) queryRecordLocked(q cq.Query) []byte {
	sq := n.queries[q.ID]
	if sq.rec == nil {
		rec, err := q.AppendWire(wirecodec.GetBuf())
		if err == nil {
			st := queryState{Query: rec, Subscriber: sq.subscriber}
			sq.rec = st.MarshalWire(make([]byte, 0, len(rec)+len(sq.subscriber)+2*binary.MaxVarintLen32))
			n.queries[q.ID] = sq
		}
		wirecodec.PutBuf(rec)
	}
	return sq.rec
}

// extractQueries removes the queries stored in g (with their subscriber
// addresses) for state transfer.
func (n *Node) extractQueries(g bitkey.Group) []queryState {
	qs := n.engine.ExtractGroup(g)
	if len(qs) == 0 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]queryState, 0, len(qs))
	for _, q := range qs {
		rec := n.queryRecordLocked(q)
		delete(n.queries, q.ID)
		var st queryState
		if rec != nil && st.UnmarshalWire(rec) == nil {
			out = append(out, st)
		}
	}
	return out
}

// installQueries registers transferred query state locally under whichever
// active group covers each query's identifier key — on the covered-accept
// paths that group differs from the group the state arrived under. A query
// whose identifier key falls under no locally active group is NOT installed
// here: its packets route elsewhere (it would never match again) and the
// engine-by-active-group replica snapshot would never carry it, so it goes
// to the orphan requeue and is re-placed on whichever server owns its key.
func (n *Node) installQueries(states []queryState) {
	installed := false
	var strays []queryState
	for _, st := range states {
		q, err := cq.UnmarshalQuery(st.Query)
		if err != nil {
			continue
		}
		ik, err := q.IdentifierKey(n.cfg.KeyBits)
		if err != nil {
			continue
		}
		if _, ok := n.server.ManagesKey(ik); !ok {
			strays = append(strays, st)
			continue
		}
		if err := n.engine.Register(q); err != nil && !errors.Is(err, cq.ErrDuplicateQuery) {
			continue
		}
		n.mu.Lock()
		n.setSubscriberLocked(q.ID, st.Subscriber)
		n.mu.Unlock()
		installed = true
	}
	if installed {
		// The next replica push cannot be a delta: these queries are in no
		// registration's record list.
		n.mu.Lock()
		n.repStale = true
		n.mu.Unlock()
	}
	n.orphanQueries(strays)
}

// acceptKeyGroupPayload builds the ACCEPT_KEYGROUP wire payload for a group
// transfer carrying the extracted query state and the ownership epoch.
func acceptKeyGroupPayload(g bitkey.Group, parent core.ServerID, states []queryState, epoch uint64) []byte {
	msg := core.AcceptKeyGroupMsg{
		GroupValue: g.Prefix.Value,
		GroupBits:  g.Prefix.Bits,
		Parent:     string(parent),
		Epoch:      epoch,
	}
	for i := range states {
		msg.Queries = append(msg.Queries, states[i].MarshalWire(nil))
	}
	return msg.MarshalWire(nil)
}

// handOff sends g, which is no longer active here, with its extracted query
// state to owner in an ACCEPT_KEYGROUP message carrying ownership epoch
// epoch. It is the one hand-off path of splits, reconciliation and drain,
// and returns 1 when the group left this node, 0 when it stayed:
//   - delivered: the parent is told the new holder;
//   - refused: the owner's table already covers the range (a stale copy on
//     our side). The group is not resurrected here — that is how a range ends
//     up active on two nodes — and the queries go to the orphan requeue;
//   - transport failure: the group is taken back so its range stays served,
//     and the next load check's reconciliation (or drain) re-sends it with
//     epoch+1. If the request did reach the owner (only the reply was lost),
//     the group is briefly active on both nodes; ownership is deterministic,
//     so that re-send lands on the same owner, whose idempotent accept
//     collapses the duplicate.
func (n *Node) handOff(g bitkey.Group, parent core.ServerID, epoch uint64, states []queryState, owner core.ServerID) int {
	_, err := n.caller.call(string(owner), TypeAcceptKeyGroup, acceptKeyGroupPayload(g, parent, states, epoch))
	if err == nil {
		n.notifyChildMoved(g, parent, owner)
		return 1
	}
	if IsRemote(err) {
		n.orphanQueries(states)
		return 1
	}
	if err := n.server.HandleAcceptKeyGroupEpoch(g, parent, epoch); err != nil {
		n.orphanQueries(states)
		return 0
	}
	n.installQueries(states)
	n.notifyChildMoved(g, parent, core.ServerID(n.Addr()))
	return 0
}

// TransferDrops is always 0: a hand-off that fails is taken back (handOff),
// so no transfer is ever abandoned. It is kept for callers that gate on it.
func (n *Node) TransferDrops() int64 { return 0 }

// OrphanDrops returns how many orphaned queries were dropped after exhausting
// their placement budget.
func (n *Node) OrphanDrops() int64 { return atomic.LoadInt64(&n.orphanDrops) }

// reconcileOwnership hands active groups whose virtual key no longer maps to
// this node over to the current owner. This is what keeps the CLASH layer
// consistent with the DHT as nodes join: the successor of a group's hash
// point changes, and the group (with its query state) must follow. Transfers
// reuse ACCEPT_KEYGROUP, preserving the parent linkage, and the parent is
// told about the new holder (TypeChildMoved) so consolidation of the pair
// keeps working. A re-homed left child cannot be merged by its parent (the
// parent's merge logic needs the left leaf locally); such pairs simply stay
// split until a future tree-repair pass.
func (n *Node) reconcileOwnership() int {
	self := core.ServerID(n.Addr())
	moved := 0
	for _, e := range n.server.Entries() {
		if !e.Active {
			continue
		}
		vk, err := e.Group.VirtualKey(n.cfg.KeyBits)
		if err != nil {
			continue
		}
		owner, err := n.mapGroup(vk)
		if err != nil || owner == self {
			continue
		}
		moved += n.transferGroup(e, owner)
	}
	return moved
}

// transferGroup releases one active group and hands it (with its query
// state) to owner under the next ownership epoch, so the receiver can drop
// delayed duplicates of older transfers (handOff); it returns 1 when the
// group left this node, 0 when it stayed. Shared by the DHT reconciliation
// (reconcileOwnership) and the admin drain (drainStep).
func (n *Node) transferGroup(e core.Entry, owner core.ServerID) int {
	// Release before sending: a failed release means the snapshot is
	// stale (a concurrent RELEASE_KEYGROUP or merge already removed the
	// entry), and sending anyway would make the range active on two
	// nodes at once.
	states := n.extractQueries(e.Group)
	if err := n.server.HandleRelease(e.Group); err != nil {
		n.installQueries(states)
		return 0
	}
	return n.handOff(e.Group, e.Parent, e.Epoch+1, states, owner)
}

// notifyChildMoved tells the parent of a re-homed right child who holds it
// now, so the parent accepts the new holder's load reports and reclaims the
// group from the right place at merge time. Best effort: a missed update
// only stalls consolidation of that pair.
func (n *Node) notifyChildMoved(g bitkey.Group, parent, newHolder core.ServerID) {
	if parent == core.NoServer || g.Depth() == 0 || g.IsLeftChild() {
		return
	}
	if parent == core.ServerID(n.Addr()) {
		_ = n.server.HandleChildMoved(g, newHolder)
		return
	}
	msg := childMovedMsg{
		GroupValue: g.Prefix.Value,
		GroupBits:  g.Prefix.Bits,
		Holder:     string(newHolder),
	}
	_, _ = n.caller.call(string(parent), TypeChildMoved, msg.MarshalWire(nil))
}

// sendLoadReports delivers this period's leaf→parent load reports.
func (n *Node) sendLoadReports() {
	for _, rep := range n.server.LoadReports() {
		// A parent the failure detector currently calls dead is skipped
		// outright: the report is best effort and re-sent next period anyway,
		// and paying a deadline per report per period for a dead parent adds
		// up across groups.
		if n.susp.state(string(rep.To)) == chord.PeerDead {
			continue
		}
		msg := core.LoadReportMsg{
			GroupValue: rep.Group.Prefix.Value,
			GroupBits:  rep.Group.Prefix.Bits,
			Load:       rep.Load,
			From:       string(rep.From),
		}
		// Best effort: a missed report only delays consolidation.
		_, _ = n.caller.call(string(rep.To), TypeLoadReport, msg.MarshalWire(nil))
	}
}

// tryMerge executes at most one consolidation per period: a parked reclaim
// whose outcome is still unknown, or else the coldest eligible sibling pair.
// A remote right child is reclaimed with a RELEASE_KEYGROUP exchange that
// carries the child's query state back.
func (n *Node) tryMerge(now time.Time) {
	n.mu.Lock()
	parked := n.reclaims
	n.reclaims = nil
	n.mu.Unlock()
	if len(parked) > 0 {
		n.reclaim(parked[0], now)
		return
	}
	props := n.server.PlanMerges(load.UnderloadFraction, now)
	if len(props) == 0 {
		return
	}
	n.reclaim(pendingReclaim{prop: props[0]}, now)
}

// reclaimRetryBudget bounds how often an unanswered RELEASE_KEYGROUP is
// retried before the reclaim is abandoned (the pair then simply stays split
// until a later load check proposes it again).
const reclaimRetryBudget = 10

// reclaim performs one consolidation attempt. A RELEASE_KEYGROUP whose reply
// is lost leaves the outcome unknown — the remote may or may not have
// released the group — so the attempt is parked and retried: on retry the
// release either succeeds normally or reports the group gone (released by
// the earlier attempt), in which case the merge completes without state.
func (n *Node) reclaim(r pendingReclaim, now time.Time) {
	prop := r.prop
	self := core.ServerID(n.Addr())
	var returned []queryState
	if prop.RightHolder != self {
		msg := core.ReleaseKeyGroupMsg{
			GroupValue: prop.RightChild.Prefix.Value,
			GroupBits:  prop.RightChild.Prefix.Bits,
			Parent:     n.Addr(),
		}
		reply, err := n.caller.call(string(prop.RightHolder), TypeReleaseKeyGroup, msg.MarshalWire(nil))
		if err != nil {
			if !IsRemote(err) && r.attempts < reclaimRetryBudget {
				r.attempts++
				n.mu.Lock()
				n.reclaims = append(n.reclaims, r)
				n.mu.Unlock()
			}
			return
		}
		var rel core.ReleaseKeyGroupReplyMsg
		if err := rel.UnmarshalWire(reply); err != nil {
			return
		}
		if !rel.OK && !rel.Gone {
			// The holder's view disagrees (the child was split further):
			// abort the merge.
			return
		}
		// rel.Gone: the holder released the group on an earlier attempt
		// whose reply was lost; its query state is gone with that reply, so
		// complete the merge without state rather than leave the key range
		// unowned.
		for _, raw := range rel.Queries {
			var st queryState
			if err := st.UnmarshalWire(raw); err == nil {
				returned = append(returned, st)
			}
		}
	}
	res, err := n.server.ExecuteMerge(prop.Parent, now)
	if err != nil {
		// The remote no longer holds the child but the merge bookkeeping
		// failed (e.g. the entry mutated concurrently): re-accept the child
		// locally so its key range stays served, and point the parent entry
		// at ourselves for a later local merge.
		if prop.RightHolder != self {
			if aerr := n.server.HandleAcceptKeyGroup(prop.RightChild, self); aerr == nil {
				_ = n.server.HandleChildMoved(prop.RightChild, self)
				n.installQueries(returned)
			}
		}
		return
	}
	n.installQueries(returned)
	n.emit(Event{Type: EventMerge, Group: res.Merged.String(), Peer: string(prop.RightHolder)})
}

// verdictString renders a chord.PeerState for event details.
func verdictString(s chord.PeerState) string {
	switch s {
	case chord.PeerDead:
		return "dead"
	case chord.PeerSuspect:
		return "suspect"
	default:
		return "ok"
	}
}
