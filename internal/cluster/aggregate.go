package cluster

import "sort"

// StageLatency is the fleet-merged latency estimate for one publish stage.
type StageLatency struct {
	// Count is the total number of observations across every scraped node.
	Count uint64 `json:"count"`
	// P50/P95/P99 are histogram-quantile estimates in seconds, interpolated
	// inside the merged cumulative buckets.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// GroupHeat is one key group's load as seen by its holder.
type GroupHeat struct {
	Group   string  `json:"group"`
	Holder  string  `json:"holder,omitempty"`
	Load    float64 `json:"load"`
	Queries int     `json:"queries"`
}

// Fleet is the cluster-wide aggregate of one collection pass.
type Fleet struct {
	// Nodes is the number of configured hubs; Reachable how many answered.
	Nodes     int `json:"nodes"`
	Reachable int `json:"reachable"`

	// Builds counts nodes per build identity (version / go version). More
	// than one entry means the fleet is mid-rollout (or drifted).
	Builds       map[string]int `json:"builds,omitempty"`
	VersionSkew  bool           `json:"versionSkew,omitempty"`
	GroupsActive int            `json:"groupsActive"`
	Queries      int            `json:"queries"`

	// Objects sums clash_objects_total across the fleet, by status.
	Objects map[string]float64 `json:"objects,omitempty"`
	// Counters sums the fleet's headline counters by short name.
	Counters map[string]float64 `json:"counters,omitempty"`

	// Stages are the merged clash_trace_stage_seconds quantiles per stage.
	Stages map[string]StageLatency `json:"stages,omitempty"`
	// Heat ranks the hottest key groups by holder-reported load fraction.
	Heat []GroupHeat `json:"heat,omitempty"`
	// Spans is the total span count observed across the fleet's rings.
	Spans uint64 `json:"spans"`
}

// fleetCounters are the headline counters summed across nodes into
// Fleet.Counters, keyed by the short name they are reported under.
var fleetCounters = map[string]string{
	"splits":         "clash_splits_total",
	"merges":         "clash_merges_total",
	"groupsAccepted": "clash_groups_accepted_total",
	"groupsReleased": "clash_groups_released_total",
	"recovered":      "clash_groups_recovered_total",
	"matchDrops":     "clash_match_drops_total",
	"orphanDrops":    "clash_orphan_drops_total",
	"shed":           "clash_transport_shed_total",
	"timeouts":       "clash_transport_timeouts_total",
	"retries":        "clash_transport_retries_total",
	"eventsDropped":  "clash_events_dropped_total",
}

// Aggregate folds one collection pass into fleet totals, merged stage
// quantiles and per-group heat.
func Aggregate(v *View) *Fleet {
	f := &Fleet{
		Nodes:    len(v.Nodes),
		Builds:   make(map[string]int),
		Objects:  make(map[string]float64),
		Counters: make(map[string]float64),
		Stages:   make(map[string]StageLatency),
	}
	stageBuckets := make(mergedBuckets)
	stageCounts := make(map[string]uint64)
	var heat []GroupHeat

	for _, nv := range v.Nodes {
		if nv.Err != "" || nv.Metrics == nil {
			continue
		}
		f.Reachable++
		if nv.Build != (BuildInfo{}) {
			f.Builds[nv.Build.Version+" / "+nv.Build.GoVersion]++
		}
		if nv.Status != nil {
			f.GroupsActive += len(nv.Status.ActiveGroups)
			f.Queries += nv.Status.Queries
		}
		for _, s := range nv.Metrics.Select("clash_objects_total") {
			f.Objects[s.Labels["status"]] += s.Value
		}
		for short, name := range fleetCounters {
			f.Counters[short] += nv.Metrics.Sum(name)
		}
		stageBuckets.addHistogram(nv.Metrics, "clash_trace_stage_seconds", "stage")
		for _, s := range nv.Metrics.Select("clash_trace_stage_seconds_count") {
			stageCounts[s.Labels["stage"]] += uint64(s.Value)
		}
		for _, s := range nv.Metrics.Select("clash_group_load_fraction") {
			heat = append(heat, GroupHeat{
				Group:  s.Labels["group"],
				Holder: nv.Addr,
				Load:   s.Value,
			})
		}
		f.Spans += uint64(len(nv.Spans))
	}
	f.VersionSkew = len(f.Builds) > 1

	for stage, count := range stageCounts {
		qs := stageBuckets.quantiles(stage, 0.50, 0.95, 0.99)
		f.Stages[stage] = StageLatency{Count: count, P50: qs[0], P95: qs[1], P99: qs[2]}
	}

	// Per-group query counts come from the topology walk (the gauge only
	// carries load), matched by holder and group, so a group held by two
	// nodes gets each holder's own count. A group its scraped holder lost
	// since the walk reads 0 queries — heat is advisory, not authoritative.
	if v.Topo != nil {
		type holderGroup struct{ holder, group string }
		queries := make(map[holderGroup]int)
		for _, n := range v.Topo.Nodes {
			for _, g := range n.Groups {
				queries[holderGroup{n.Addr, g.Group}] = g.Queries
			}
		}
		for i := range heat {
			heat[i].Queries = queries[holderGroup{heat[i].Holder, heat[i].Group}]
		}
	}
	sort.Slice(heat, func(i, j int) bool {
		if heat[i].Load != heat[j].Load {
			return heat[i].Load > heat[j].Load
		}
		return heat[i].Group < heat[j].Group
	})
	if len(heat) > 16 {
		heat = heat[:16]
	}
	f.Heat = heat
	return f
}
