package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// LintPrometheus validates a Prometheus text-format exposition the way
// promtool's check would, without the dependency: HELP/TYPE comment syntax,
// metric and label name grammar, sample value parsing, every sample belonging
// to a declared family, counters non-negative, and histogram families
// internally consistent (buckets cumulative over increasing le, a +Inf
// bucket present and equal to _count). It returns every problem found, nil
// when the input is clean. The CI hub smoke test runs it over a live
// /metrics scrape.
func LintPrometheus(r io.Reader) []error {
	var errs []error
	types := make(map[string]string) // family → type
	helped := make(map[string]bool)  // family → HELP seen
	type histSeries struct {         // one histogram child across its lines
		buckets map[float64]float64 // le → cumulative count
		sum     float64
		count   float64
		hasSum  bool
		hasCnt  bool
	}
	hists := make(map[string]*histSeries) // family + "\xff" + non-le labels

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", lineNo, fmt.Sprintf(format, args...)))
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validName(name, true) {
				fail("invalid metric name %q in %s line", name, fields[1])
				continue
			}
			switch fields[1] {
			case "HELP":
				if helped[name] {
					fail("duplicate HELP for %s", name)
				}
				helped[name] = true
			case "TYPE":
				if len(fields) != 4 {
					fail("TYPE line for %s missing type", name)
					continue
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					fail("unknown type %q for %s", fields[3], name)
					continue
				}
				if _, dup := types[name]; dup {
					fail("duplicate TYPE for %s", name)
				}
				types[name] = fields[3]
			}
			continue
		}

		name, labels, value, err := ParsePromSample(line)
		if err != nil {
			fail("%v", err)
			continue
		}
		fam, suffix := sampleFamily(name, types)
		if fam == "" {
			fail("sample %s has no TYPE declaration", name)
			continue
		}
		typ := types[fam]
		if (typ == "counter" || typ == "histogram") && (value < 0 || math.IsNaN(value)) {
			fail("%s sample of %s has invalid value %v", typ, name, value)
		}
		if typ != "histogram" {
			continue
		}
		// Track histogram children for the consistency pass.
		var le string
		nonLE := make([]string, 0, len(labels))
		for _, l := range labels {
			if l.Key == "le" {
				le = l.Val
				continue
			}
			nonLE = append(nonLE, l.Key+"="+l.Val)
		}
		sort.Strings(nonLE)
		key := fam + "\xff" + strings.Join(nonLE, "\xff")
		h := hists[key]
		if h == nil {
			h = &histSeries{buckets: make(map[float64]float64)}
			hists[key] = h
		}
		switch suffix {
		case "_bucket":
			if le == "" {
				fail("%s_bucket sample missing le label", fam)
				continue
			}
			bound, err := ParsePromFloat(le)
			if err != nil {
				fail("%s_bucket has bad le %q", fam, le)
				continue
			}
			h.buckets[bound] = value
		case "_sum":
			h.sum, h.hasSum = value, true
		case "_count":
			h.count, h.hasCnt = value, true
		default:
			fail("histogram family %s has plain sample %s", fam, name)
		}
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, fmt.Errorf("read: %w", err))
	}

	for key, h := range hists {
		fam := key[:strings.IndexByte(key, '\xff')]
		bounds := make([]float64, 0, len(h.buckets))
		for b := range h.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		prevCount := -1.0
		hasInf := false
		for _, b := range bounds {
			c := h.buckets[b]
			if c < prevCount {
				errs = append(errs, fmt.Errorf("%s: bucket counts not cumulative (le=%v count %v < %v)", fam, b, c, prevCount))
			}
			prevCount = c
			if math.IsInf(b, 1) {
				hasInf = true
			}
		}
		if !hasInf {
			errs = append(errs, fmt.Errorf("%s: histogram missing +Inf bucket", fam))
		} else if h.hasCnt && h.buckets[math.Inf(1)] != h.count {
			errs = append(errs, fmt.Errorf("%s: +Inf bucket %v != _count %v", fam, h.buckets[math.Inf(1)], h.count))
		}
		if !h.hasCnt {
			errs = append(errs, fmt.Errorf("%s: histogram missing _count", fam))
		}
		if !h.hasSum {
			errs = append(errs, fmt.Errorf("%s: histogram missing _sum", fam))
		}
	}
	return errs
}

// PromLabel is one parsed key="value" pair of a sample's label set.
type PromLabel struct{ Key, Val string }

// ParsePromSample parses one exposition sample line, `name{labels} value
// [timestamp]`. Metric and label names must be valid, label values may use
// only the \\, \" and \n escapes, and the value accepts the +Inf, Inf and
// -Inf spellings. It is the one sample parser of the repo: LintPrometheus
// checks a scrape with it and clashtop's collector reads values through it.
func ParsePromSample(line string) (name string, labels []PromLabel, value float64, err error) {
	rest := line
	end := strings.IndexAny(rest, "{ ")
	if end < 0 {
		return "", nil, 0, fmt.Errorf("sample %q missing value", line)
	}
	name = rest[:end]
	if !validName(name, true) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		close := strings.LastIndexByte(rest, '}')
		if close < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		if labels, err = parseLabels(rest[1:close]); err != nil {
			return "", nil, 0, fmt.Errorf("bad labels in %q: %v", line, err)
		}
		rest = rest[close+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample %q: want value [timestamp]", line)
	}
	if value, err = ParsePromFloat(fields[0]); err != nil {
		return "", nil, 0, fmt.Errorf("sample %q: bad value %q", line, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("sample %q: bad timestamp %q", line, fields[1])
		}
	}
	return name, labels, value, nil
}

// parseLabels parses the inside of a {…} label set.
func parseLabels(s string) ([]PromLabel, error) {
	var out []PromLabel
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("missing '=' in %q", s)
		}
		key := s[:eq]
		if !validName(key, false) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if s == "" || s[0] != '"' {
			return nil, fmt.Errorf("label %s value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[i])
				default:
					return nil, fmt.Errorf("bad escape \\%c", s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %s", key)
		}
		out = append(out, PromLabel{Key: key, Val: val.String()})
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}

// ParsePromFloat parses a sample value or an le bound, accepting the +Inf,
// Inf and -Inf spellings.
func ParsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// sampleFamily maps a sample name to its declared family: the name itself,
// or for histogram/summary suffixes the base family. suffix is "" for a
// plain sample.
func sampleFamily(name string, types map[string]string) (fam, suffix string) {
	if _, ok := types[name]; ok {
		return name, ""
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if t, ok := types[base]; ok && (t == "histogram" || t == "summary") {
			return base, suf
		}
	}
	return "", ""
}
