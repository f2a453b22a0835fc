package cluster

import (
	"fmt"

	"clash/internal/bitkey"
	"clash/internal/hub"
	"clash/internal/invariant"
)

// Probe is one cluster invariant check result.
type Probe struct {
	// Name identifies the invariant: coverage, successors, replicas.
	Name string `json:"name"`
	// OK is true when the invariant held; Detail explains either way.
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
	// Violations carries up to a handful of concrete counterexamples.
	Violations []string `json:"violations,omitempty"`
}

// maxProbeViolations caps the counterexamples a probe reports.
const maxProbeViolations = 8

// RunProbes evaluates every cluster invariant against one topology walk.
// A nil or incomplete topology yields skipped (not-OK) probes rather than
// false confidence.
func RunProbes(topo *hub.TopologyView) []Probe {
	if topo == nil {
		p := Probe{Name: "coverage", Detail: "no topology available (no hub reachable)"}
		return []Probe{p,
			{Name: "successors", Detail: p.Detail},
			{Name: "replicas", Detail: p.Detail}}
	}
	return []Probe{
		probeCoverage(topo),
		probeSuccessors(topo),
		probeReplicas(topo),
	}
}

// probeCoverage checks the CLASH structural invariant that the active key
// groups tile the key space exactly. It reads every node's own group list,
// so a group active on two nodes counts twice. (The paper's split/merge
// rules preserve the tiling; a violation means a transfer lost or
// duplicated a group.)
func probeCoverage(topo *hub.TopologyView) Probe {
	p := Probe{Name: "coverage"}
	if !topo.Complete {
		p.Detail = "ring walk incomplete; coverage not evaluable"
		return p
	}
	var groups []bitkey.Group
	var holders []string
	for _, n := range topo.Nodes {
		for _, tg := range n.Groups {
			g, err := bitkey.ParseGroup(tg.Group)
			if err != nil {
				p.Violations = append(p.Violations, fmt.Sprintf("unparseable group %q on %s: %v", tg.Group, n.Addr, err))
				continue
			}
			groups = append(groups, g)
			holders = append(holders, n.Addr)
		}
	}
	if len(p.Violations) > 0 {
		p.Detail = "group names did not parse"
		return p
	}
	record(&p, invariant.Tiling(groups), func(v invariant.Violation) string {
		switch {
		case v.With >= 0:
			return fmt.Sprintf("%v (held by %s and %s)", v, holders[v.At], holders[v.With])
		case v.At >= 0:
			return fmt.Sprintf("%v (held by %s)", v, holders[v.At])
		}
		return v.String()
	})
	if p.OK {
		p.Detail = fmt.Sprintf("%d groups tile the key space exactly", len(groups))
	} else {
		p.Detail = fmt.Sprintf("%d groups do not tile the key space", len(groups))
	}
	return p
}

// probeSuccessors checks ring consistency: with the members sorted by Chord
// ID, every node's first successor must be the next member (wrapping).
func probeSuccessors(topo *hub.TopologyView) Probe {
	p := Probe{Name: "successors"}
	if !topo.Complete {
		p.Detail = "ring walk incomplete; successor order not evaluable"
		return p
	}
	if len(topo.Nodes) == 0 {
		p.Detail = "topology walk returned no nodes"
		return p
	}
	members := make([]invariant.Member, len(topo.Nodes))
	for i, n := range topo.Nodes {
		members[i] = invariant.Member{Addr: n.Addr, ID: n.ID}
		if len(n.Successors) > 0 {
			members[i].Successor = n.Successors[0]
		}
	}
	record(&p, invariant.RingOrder(members), invariant.Violation.String)
	if p.OK {
		p.Detail = fmt.Sprintf("%d-node ring successor order consistent", len(members))
	} else {
		p.Detail = "successor pointers disagree with Chord ID order"
	}
	return p
}

// record sets p.OK from vs and keeps at most maxProbeViolations of them,
// each rendered by format.
func record(p *Probe, vs []invariant.Violation, format func(invariant.Violation) string) {
	p.OK = len(vs) == 0
	for _, v := range vs[:min(len(vs), maxProbeViolations)] {
		p.Violations = append(p.Violations, format(v))
	}
}

// probeReplicas checks crash-recovery health: in a multi-node ring, every
// node holding key groups must have at least one live peer replicating it
// (replication is per origin node, not per group).
func probeReplicas(topo *hub.TopologyView) Probe {
	p := Probe{Name: "replicas"}
	if !topo.Complete {
		p.Detail = "ring walk incomplete; replica placement not evaluable"
		return p
	}
	if len(topo.Nodes) < 2 {
		p.OK = true
		p.Detail = "single-node ring: replication not applicable"
		return p
	}
	replicas := make(map[string]int)
	for _, n := range topo.Nodes {
		for _, origin := range n.ReplicaOrigins {
			if origin != n.Addr {
				replicas[origin]++
			}
		}
	}
	holders := 0
	for _, n := range topo.Nodes {
		if len(n.Groups) == 0 {
			continue
		}
		holders++
		if replicas[n.Addr] == 0 && len(p.Violations) < maxProbeViolations {
			p.Violations = append(p.Violations,
				fmt.Sprintf("%s holds %d groups but no peer replicates it", n.Addr, len(n.Groups)))
		}
	}
	p.OK = len(p.Violations) == 0
	if p.OK {
		p.Detail = fmt.Sprintf("every group-holding node (%d) has at least one replica peer", holders)
	} else {
		p.Detail = "group holders without crash-recovery replicas"
	}
	return p
}
