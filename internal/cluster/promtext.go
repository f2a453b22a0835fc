package cluster

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"clash/internal/metrics"
)

// inf marks the +Inf histogram bucket bound.
var inf = math.Inf(1)

// Sample is one parsed Prometheus exposition sample.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Metrics is a parsed /metrics scrape with lookup helpers.
type Metrics struct {
	samples []Sample
}

// parseMetrics reads a Prometheus text exposition (HELP/TYPE comments and
// samples) through metrics.ParsePromSample, the parser LintPrometheus checks
// the registry's output with, so a scrape reads back exactly the grammar the
// linter accepts.
func parseMetrics(r io.Reader) (*Metrics, error) {
	m := &Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v, err := metrics.ParsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo, err)
		}
		s := Sample{Name: name, Value: v}
		if len(labels) > 0 {
			s.Labels = make(map[string]string, len(labels))
			for _, l := range labels {
				s.Labels[l.Key] = l.Val
			}
		}
		m.samples = append(m.samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// Select returns every sample of the named family member (exact name match,
// so histogram series are addressed as name_bucket / name_sum / name_count).
func (m *Metrics) Select(name string) []Sample {
	var out []Sample
	for _, s := range m.samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Sum adds every sample of the given name (all label combinations).
func (m *Metrics) Sum(name string) float64 {
	total := 0.0
	for _, s := range m.samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// bucketPoint is one cumulative histogram bucket.
type bucketPoint struct {
	le    float64 // upper bound (math.Inf(1) for +Inf)
	count uint64
}

// mergedBuckets accumulates identical bucket layouts across nodes, keyed by
// one distinguishing label (e.g. stage).
type mergedBuckets map[string]map[float64]uint64

// addHistogram folds one node's `name_bucket` samples into the merge, keyed
// by the byLabel value.
func (mb mergedBuckets) addHistogram(m *Metrics, name, byLabel string) {
	for _, s := range m.Select(name + "_bucket") {
		key := s.Labels[byLabel]
		leStr, ok := s.Labels["le"]
		if !ok {
			continue
		}
		le, err := metrics.ParsePromFloat(leStr)
		if err != nil {
			continue
		}
		if mb[key] == nil {
			mb[key] = make(map[float64]uint64)
		}
		mb[key][le] += uint64(s.Value)
	}
}

// quantiles computes the given quantiles from a merged cumulative bucket set
// by linear interpolation inside the covering bucket (the Prometheus
// histogram_quantile estimate).
func (mb mergedBuckets) quantiles(key string, qs ...float64) []float64 {
	cum := mb[key]
	out := make([]float64, len(qs))
	if len(cum) == 0 {
		return out
	}
	points := make([]bucketPoint, 0, len(cum))
	for le, c := range cum {
		points = append(points, bucketPoint{le: le, count: c})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].le < points[j].le })
	total := points[len(points)-1].count
	if total == 0 {
		return out
	}
	for qi, q := range qs {
		rank := q * float64(total)
		var prev bucketPoint
		for _, p := range points {
			if float64(p.count) >= rank {
				if p.le == inf {
					// Estimate the open-ended bucket at its lower bound.
					out[qi] = prev.le
					break
				}
				span := float64(p.count) - float64(prev.count)
				if span <= 0 {
					out[qi] = p.le
					break
				}
				out[qi] = prev.le + (p.le-prev.le)*(rank-float64(prev.count))/span
				break
			}
			prev = p
		}
	}
	return out
}
