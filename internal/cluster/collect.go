// Package cluster is clashtop's aggregation engine: it discovers a CLASH
// ring through the hubs' /topology walk, scrapes every reachable node's
// control plane (/status, /metrics, /traces/spans), reassembles sampled
// publishes into cross-node trace trees and runs cluster-wide invariant
// probes (key-space coverage, replica health, ring consistency).
//
// The package only consumes the hubs' public HTTP surface — everything it
// computes, an operator could compute from curl output. That keeps it usable
// against any deployment, local or remote, with no side channel into the
// process.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"clash/internal/hub"
	"clash/internal/overlay"
)

// spanScrapeLimit bounds the unfiltered span sample pulled from each node.
const spanScrapeLimit = 512

// Collector scrapes a set of hub base URLs (e.g. "http://10.0.0.1:9101").
type Collector struct {
	// Hubs are the hub base URLs to scrape.
	Hubs []string
}

// httpClient carries every scrape request.
var httpClient = &http.Client{Timeout: 5 * time.Second}

// NodeView is one hub's scrape result.
type NodeView struct {
	// Hub is the scraped base URL.
	Hub string `json:"hub"`
	// Addr is the node's transport address (from /status).
	Addr string `json:"addr,omitempty"`
	// Err records the scrape failure, if any; the other fields are then zero.
	Err string `json:"err,omitempty"`
	// Status is the node's /status document.
	Status *overlay.Status `json:"status,omitempty"`
	// Build is the node's build identity from clash_build_info.
	Build BuildInfo `json:"build,omitempty"`

	// Spans is the node's retained hop-span ring (newest first).
	Spans []overlay.Span `json:"-"`
	// Metrics is the parsed /metrics scrape.
	Metrics *Metrics `json:"-"`
}

// BuildInfo is one node's clash_build_info label set.
type BuildInfo struct {
	Version    string `json:"version,omitempty"`
	GoVersion  string `json:"goversion,omitempty"`
	GoMaxProcs string `json:"gomaxprocs,omitempty"`
}

// View is one collection pass over the fleet.
type View struct {
	// Nodes are the per-hub scrape results, in Hubs order.
	Nodes []NodeView `json:"nodes"`
	// Topo is the ring-walk topology from the first reachable hub.
	Topo *hub.TopologyView `json:"topo,omitempty"`
	// Unscraped lists ring members visible in the topology walk but not
	// covered by any scraped hub (their metrics and spans are missing from
	// every aggregate).
	Unscraped []string `json:"unscraped,omitempty"`
}

// getJSON fetches url and decodes the JSON body into v.
func (c *Collector) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeNode collects one hub's /status, /metrics and span ring.
func (c *Collector) scrapeNode(ctx context.Context, base string) NodeView {
	nv := NodeView{Hub: base}
	var st overlay.Status
	if err := c.getJSON(ctx, base+"/status", &st); err != nil {
		nv.Err = err.Error()
		return nv
	}
	nv.Status = &st
	nv.Addr = st.Addr

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = httpClient.Do(req); err == nil {
			if resp.StatusCode == http.StatusOK {
				nv.Metrics, err = parseMetrics(resp.Body)
			} else {
				err = fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
			}
			resp.Body.Close()
		}
	}
	if err != nil {
		nv.Err = err.Error()
		return nv
	}
	if nv.Metrics != nil {
		for _, s := range nv.Metrics.Select("clash_build_info") {
			nv.Build = BuildInfo{
				Version:    s.Labels["version"],
				GoVersion:  s.Labels["goversion"],
				GoMaxProcs: s.Labels["gomaxprocs"],
			}
		}
	}

	var spans hub.SpanSample
	spansURL := fmt.Sprintf("%s/traces/spans?limit=%d", base, spanScrapeLimit)
	if err := c.getJSON(ctx, spansURL, &spans); err != nil {
		nv.Err = err.Error()
		return nv
	}
	nv.Spans = spans.Spans
	return nv
}

// Collect scrapes every configured hub concurrently and the topology from
// the first hub that answers. It never fails as a whole: per-node errors are
// recorded in the corresponding NodeView.
func (c *Collector) Collect(ctx context.Context) *View {
	v := &View{Nodes: make([]NodeView, len(c.Hubs))}
	var wg sync.WaitGroup
	for i, base := range c.Hubs {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			v.Nodes[i] = c.scrapeNode(ctx, base)
		}(i, base)
	}
	wg.Wait()

	for _, nv := range v.Nodes {
		if nv.Err != "" {
			continue
		}
		var topo hub.TopologyView
		if err := c.getJSON(ctx, nv.Hub+"/topology", &topo); err == nil {
			v.Topo = &topo
			break
		}
	}

	if v.Topo != nil {
		scraped := make(map[string]bool, len(v.Nodes))
		for _, nv := range v.Nodes {
			if nv.Addr != "" {
				scraped[nv.Addr] = true
			}
		}
		for _, tn := range v.Topo.Nodes {
			if !scraped[tn.Addr] {
				v.Unscraped = append(v.Unscraped, tn.Addr)
			}
		}
		sort.Strings(v.Unscraped)
	}
	return v
}

// SpansFor fetches every scraped node's spans for one trace (the filtered
// /traces/spans form, which returns them in recording order) and pools them
// for tree assembly.
func (c *Collector) SpansFor(ctx context.Context, traceID uint64) []overlay.Span {
	var mu sync.Mutex
	var all []overlay.Span
	var wg sync.WaitGroup
	for _, base := range c.Hubs {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			var sample hub.SpanSample
			url := fmt.Sprintf("%s/traces/spans?traceId=%d", base, traceID)
			if err := c.getJSON(ctx, url, &sample); err != nil {
				return
			}
			mu.Lock()
			all = append(all, sample.Spans...)
			mu.Unlock()
		}(base)
	}
	wg.Wait()
	return all
}
