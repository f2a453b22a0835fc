// Package hub is the control plane of one overlay node: it implements
// overlay.Observer and exposes the node over HTTP — Prometheus metrics,
// the JSON status snapshot, a ring-walk topology view, sampled request
// traces, a server-sent event stream of protocol events, and admin verbs
// (drain, split, merge, rebalance).
//
// The hub is strictly read-through: metric values are collected from the
// node at scrape time (no background polling), events and traces arrive via
// the observer callbacks, and admin verbs call straight into the node's
// public internals API. clashd mounts Handler() on its -status address.
package hub

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"

	"clash/internal/bitkey"
	"clash/internal/metrics"
	"clash/internal/overlay"
)

// buildVersion is the module version baked into the binary ("(devel)" for
// plain go build / go test); it labels clash_build_info so clashtop can spot
// fleet version skew without a release pipeline stamping ldflags.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// maxTopoNodes caps the /topology ring walk.
const maxTopoNodes = 256

// Hub wires one overlay node to its HTTP control plane.
type Hub struct {
	node   *overlay.Node
	reg    *metrics.Registry
	bus    *Bus
	traces *Traces
	events metrics.CounterVec
}

// New builds a hub for node and installs it as the node's observer.
func New(node *overlay.Node) *Hub {
	reg := metrics.NewRegistry()
	h := &Hub{
		node:   node,
		reg:    reg,
		bus:    NewBus(),
		traces: NewTraces(tracesCapacity, reg),
	}
	h.events = reg.CounterVec("clash_events_total",
		"Protocol events observed, by type.", "type")
	h.registerCollectors()
	node.SetObserver(h)
	return h
}

// Registry returns the hub's metrics registry (for extra app-level series).
func (h *Hub) Registry() *metrics.Registry { return h.reg }

// Bus returns the hub's event bus.
func (h *Hub) Bus() *Bus { return h.bus }

// Traces returns the hub's trace store.
func (h *Hub) Traces() *Traces { return h.traces }

// OnEvent implements overlay.Observer: count and fan out.
func (h *Hub) OnEvent(ev overlay.Event) {
	h.events.With(ev.Type).Inc()
	h.bus.Publish(ev)
}

// OnTrace implements overlay.Observer.
func (h *Hub) OnTrace(rec overlay.TraceRecord) { h.traces.OnTrace(rec) }

// OnTraceStage implements overlay.Observer.
func (h *Hub) OnTraceStage(stage string, micros int64) {
	h.traces.OnTraceStage(stage, micros)
}

// OnSpan implements overlay.Observer.
func (h *Hub) OnSpan(sp overlay.Span) { h.traces.OnSpan(sp) }

// registerCollectors declares the node's metric families and installs the
// scrape-time collector that reads them off the node. Cumulative node
// counters surface as counters via Set (the node owns the monotonic value);
// tables with dynamic keys (per-group load, per-peer suspicion) reset and
// refill their gauge vectors each scrape so departed children disappear.
func (h *Hub) registerCollectors() {
	reg := h.reg
	info := reg.GaugeVec("clash_node_info",
		"Static node identity; the value is always 1.", "addr")
	splits := reg.Counter("clash_splits_total", "Key-group splits executed.")
	merges := reg.Counter("clash_merges_total", "Key-group consolidations completed.")
	gAccepted := reg.Counter("clash_groups_accepted_total", "Key groups accepted in transfers.")
	gReleased := reg.Counter("clash_groups_released_total", "Key groups released to other nodes.")
	gRecovered := reg.Counter("clash_groups_recovered_total", "Key groups promoted from peer replicas after a crash.")
	objects := reg.CounterVec("clash_objects_total",
		"ACCEPT_OBJECT requests by outcome (ok, corrected, wrong).", "status")
	loadFrac := reg.Gauge("clash_load_fraction", "Node load fraction at the last load check.")
	groupsActive := reg.Gauge("clash_groups_active", "Active key groups held by this node.")
	queries := reg.Gauge("clash_queries", "Continuous queries stored on this node.")
	draining := reg.Gauge("clash_draining", "1 while the node is in admin drain mode.")
	groupLoad := reg.GaugeVec("clash_group_load_fraction",
		"Per-group load fraction at the last load check.", "group")
	matchDrops := reg.Counter("clash_match_drops_total",
		"Match notifications dropped after delivery failure.")
	transferDrops := reg.Counter("clash_transfer_drops_total",
		"Parked key-group transfers abandoned after exhausting retries.")
	orphanDrops := reg.Counter("clash_orphan_drops_total",
		"Orphaned queries dropped after exhausting placement retries.")
	frames := reg.CounterVec("clash_transport_frames_total", "Wire frames by direction.", "dir")
	bytes := reg.CounterVec("clash_transport_bytes_total", "Wire bytes by direction, headers included.", "dir")
	inFlight := reg.Gauge("clash_transport_in_flight", "Outbound calls awaiting a reply.")
	reconnects := reg.Counter("clash_transport_reconnects_total", "Outbound connections re-dialed.")
	timeouts := reg.Counter("clash_transport_timeouts_total", "Outbound calls that hit their deadline.")
	retries := reg.Counter("clash_transport_retries_total", "Policy-level call retries.")
	shed := reg.Counter("clash_transport_shed_total", "Inbound requests refused under overload.")
	oversized := reg.Counter("clash_transport_oversized_drops_total",
		"Inbound frames dropped for exceeding the frame size cap.")
	suspScore := reg.GaugeVec("clash_suspicion_score",
		"Failure-detector suspicion score per peer carrying a failure streak.", "peer")
	suspFails := reg.GaugeVec("clash_suspicion_fails",
		"Consecutive failed calls per suspected peer.", "peer")
	eventDrops := reg.Counter("clash_events_dropped_total",
		"Events lost on saturated /events subscribers.")
	buildInfo := reg.GaugeVec("clash_build_info",
		"Build identity; the value is always 1. clashtop compares the labels "+
			"across the fleet to report version skew.",
		"version", "goversion", "gomaxprocs")
	snapshotSwaps := reg.Counter("clash_server_snapshot_swaps_total",
		"Routing read-snapshot rebuilds published by structural changes.")
	info.With(h.node.Addr()).Set(1)
	buildInfo.With(buildVersion(), runtime.Version(), strconv.Itoa(runtime.GOMAXPROCS(0))).Set(1)

	reg.OnCollect(func() {
		c := h.node.Server().Counters()
		splits.Set(uint64(c.Splits))
		merges.Set(uint64(c.Merges))
		gAccepted.Set(uint64(c.GroupsAccepted))
		gReleased.Set(uint64(c.GroupsReleased))
		gRecovered.Set(uint64(c.GroupsRecovered))
		objects.With("ok").Set(uint64(c.ObjectsOK))
		objects.With("corrected").Set(uint64(c.ObjectsCorrect))
		objects.With("wrong").Set(uint64(c.ObjectsWrong))

		loadFrac.Set(h.node.Server().TotalLoad())
		groupsActive.Set(float64(len(h.node.Server().ActiveGroups())))
		queries.Set(float64(h.node.Engine().Len()))
		if h.node.Draining() {
			draining.Set(1)
		} else {
			draining.Set(0)
		}
		groupLoad.Reset()
		for g, l := range h.node.GroupLoads() {
			groupLoad.With(g).Set(l)
		}
		snapshotSwaps.Set(h.node.Server().SnapshotSwaps())

		matchDrops.Set(uint64(h.node.MatchDrops()))
		transferDrops.Set(uint64(h.node.TransferDrops()))
		orphanDrops.Set(uint64(h.node.OrphanDrops()))

		ts := h.node.TransportStats()
		frames.With("in").Set(ts.FramesIn)
		frames.With("out").Set(ts.FramesOut)
		bytes.With("in").Set(ts.BytesIn)
		bytes.With("out").Set(ts.BytesOut)
		inFlight.Set(float64(ts.InFlight))
		reconnects.Set(ts.Reconnects)
		timeouts.Set(ts.Timeouts)
		retries.Set(ts.Retries)
		shed.Set(ts.Shed)
		oversized.Set(ts.OversizedDrops)

		suspScore.Reset()
		suspFails.Reset()
		for peer, st := range h.node.SuspicionTable() {
			suspScore.With(peer).Set(st.Score)
			suspFails.With(peer).Set(float64(st.Fails))
		}
		eventDrops.Set(h.bus.Drops())
	})
}

// Handler returns the hub's HTTP mux.
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", h.reg)
	mux.HandleFunc("GET /status", h.serveStatus)
	mux.HandleFunc("GET /topology", h.serveTopology)
	mux.HandleFunc("GET /traces/sample", h.serveTraces)
	mux.HandleFunc("GET /traces/spans", h.serveSpans)
	mux.HandleFunc("GET /events", h.serveEvents)
	mux.HandleFunc("POST /admin/drain", h.adminDrain)
	mux.HandleFunc("POST /admin/undrain", h.adminUndrain)
	mux.HandleFunc("POST /admin/split/{group}", h.adminSplit)
	mux.HandleFunc("POST /admin/merge/{group}", h.adminMerge)
	mux.HandleFunc("POST /admin/rebalance", h.adminRebalance)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSONError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (h *Hub) serveStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, h.node.Status())
}

func (h *Hub) serveTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, h.traces.Sample(64))
}

// serveSpans returns this node's retained hop spans. ?traceId= (decimal)
// filters to one trace, in recording order — the form clashtop scrapes when
// assembling a cross-node trace tree. ?limit= caps the unfiltered sample
// (default 512, newest first).
func (h *Hub) serveSpans(w http.ResponseWriter, r *http.Request) {
	var traceID uint64
	if q := r.URL.Query().Get("traceId"); q != "" {
		id, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("bad traceId %q: %v", q, err))
			return
		}
		traceID = id
	}
	limit := 512
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
			return
		}
		limit = n
	}
	writeJSON(w, h.traces.Spans(traceID, limit))
}

// TopoPlacement is one key group's placement in the /topology document.
type TopoPlacement struct {
	Holder  string  `json:"holder"`
	Depth   int     `json:"depth"`
	Parent  string  `json:"parent,omitempty"`
	Load    float64 `json:"load"`
	Queries int     `json:"queries"`
	// Replicas lists the nodes holding crash-recovery replicas of the
	// holder's groups (replication is per origin node, not per group).
	Replicas []string `json:"replicas,omitempty"`
}

// TopologyView is the /topology document: the ring walk plus the group tree
// flattened into per-group placements.
type TopologyView struct {
	Root string `json:"root"`
	// Complete reports whether the successor walk closed the ring within the
	// node cap; false means some nodes were unreachable or the cap was hit.
	Complete bool                     `json:"complete"`
	Nodes    []overlay.TopoNode       `json:"nodes"`
	Groups   map[string]TopoPlacement `json:"groups"`
}

// serveTopology walks the ring successor by successor from this node,
// collecting each member's topology snapshot over the STATUS-fanout RPC, and
// renders the assembled ring, group tree and replica placement.
func (h *Hub) serveTopology(w http.ResponseWriter, _ *http.Request) {
	nodes, complete := h.walkRing(maxTopoNodes)
	view := TopologyView{
		Root:     h.node.Addr(),
		Complete: complete,
		Nodes:    nodes,
		Groups:   make(map[string]TopoPlacement),
	}
	// Invert ReplicaOrigins: replicasOf[origin] = nodes replicating origin.
	replicasOf := make(map[string][]string)
	for _, n := range nodes {
		for _, origin := range n.ReplicaOrigins {
			replicasOf[origin] = append(replicasOf[origin], n.Addr)
		}
	}
	for _, n := range nodes {
		for _, g := range n.Groups {
			view.Groups[g.Group] = TopoPlacement{
				Holder:   n.Addr,
				Depth:    g.Depth,
				Parent:   g.Parent,
				Load:     g.Load,
				Queries:  g.Queries,
				Replicas: replicasOf[n.Addr],
			}
		}
	}
	writeJSON(w, view)
}

// walkRing follows first-successor pointers from this node, fetching each
// member's snapshot, until the walk closes, breaks, or hits max.
func (h *Hub) walkRing(max int) ([]overlay.TopoNode, bool) {
	start := h.node.Addr()
	seen := make(map[string]bool)
	var nodes []overlay.TopoNode
	addr := start
	for addr != "" && !seen[addr] {
		if len(nodes) >= max {
			return nodes, false
		}
		info, err := h.node.FetchTopo(addr)
		if err != nil {
			return nodes, false
		}
		seen[addr] = true
		nodes = append(nodes, info)
		addr = ""
		for _, s := range info.Successors {
			if s != "" {
				addr = s
				break
			}
		}
	}
	// A walk that revisits any member closed a cycle; reaching a node with no
	// successor did not.
	return nodes, addr != ""
}

func (h *Hub) adminDrain(w http.ResponseWriter, _ *http.Request) {
	moved := h.node.Drain()
	writeJSON(w, map[string]any{"draining": true, "moved": moved})
}

func (h *Hub) adminUndrain(w http.ResponseWriter, _ *http.Request) {
	h.node.Undrain()
	writeJSON(w, map[string]any{"draining": false})
}

func (h *Hub) adminSplit(w http.ResponseWriter, r *http.Request) {
	g, err := bitkey.ParseGroup(r.PathValue("group"))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if err := h.node.ForceSplit(g); err != nil {
		writeJSONError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]any{"ok": true, "group": g.String()})
}

func (h *Hub) adminMerge(w http.ResponseWriter, r *http.Request) {
	g, err := bitkey.ParseGroup(r.PathValue("group"))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if err := h.node.ForceMerge(g); err != nil {
		writeJSONError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]any{"ok": true, "group": g.String()})
}

func (h *Hub) adminRebalance(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"moved": h.node.Rebalance()})
}
