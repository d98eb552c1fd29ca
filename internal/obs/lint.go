package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Lint checks a Prometheus text exposition for the structural
// invariants the fleet's scrape pipeline depends on and returns one
// error per violation (nil-length for a clean exposition):
//
//   - every sample's family has # HELP and # TYPE lines, and both
//     appear BEFORE the family's first sample;
//   - no family declares HELP or TYPE twice, and TYPE is one of
//     counter, gauge, histogram, summary, untyped;
//   - no series (name + canonical label set) appears twice;
//   - sample values parse as floats;
//   - for histogram families: every label set has a le="+Inf" bucket,
//     bucket counts are monotonically non-decreasing in le, the +Inf
//     bucket equals the label set's _count sample, and _sum/_count are
//     present.
//
// It is the engine behind the server/router conformance tests and the
// cmd/metricslint CLI; general comment lines ("# ...") that are not
// HELP/TYPE are ignored, as the format allows.
func Lint(r io.Reader) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	type famState struct {
		help, typ  string
		sampleSeen bool
	}
	fams := make(map[string]*famState)
	fam := func(name string) *famState {
		f, ok := fams[name]
		if !ok {
			f = &famState{}
			fams[name] = f
		}
		return f
	}
	// typeOf resolves a sample name to its declaring family (familyOf)
	// and that family's state.
	typeOf := func(sample string) (family string, f *famState) {
		family = familyOf(sample, func(name string) string {
			if f := fams[name]; f != nil {
				return f.typ
			}
			return ""
		})
		return family, fams[family]
	}

	seriesSeen := make(map[string]int) // canonical series -> line
	type histSeries struct {
		buckets map[float64]float64 // le -> cumulative count
		count   *float64
		sum     *float64
	}
	hists := make(map[string]*histSeries) // family + canonical non-le labels

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				name := fields[2]
				f := fam(name)
				switch fields[1] {
				case "HELP":
					if f.help != "" {
						fail(lineNo, "duplicate HELP for %s", name)
					}
					if f.sampleSeen {
						fail(lineNo, "HELP for %s after its first sample", name)
					}
					help := ""
					if len(fields) == 4 {
						help = fields[3]
					}
					if help == "" {
						fail(lineNo, "empty HELP text for %s", name)
					}
					f.help = help
				case "TYPE":
					if f.typ != "" {
						fail(lineNo, "duplicate TYPE for %s", name)
					}
					if f.sampleSeen {
						fail(lineNo, "TYPE for %s after its first sample", name)
					}
					typ := ""
					if len(fields) >= 4 {
						typ = fields[3]
					}
					switch typ {
					case "counter", "gauge", "histogram", "summary", "untyped":
						f.typ = typ
					default:
						fail(lineNo, "invalid TYPE %q for %s", typ, name)
					}
				}
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			fail(lineNo, "%v", err)
			continue
		}
		famName, f := typeOf(name)
		if f == nil || f.typ == "" || f.help == "" {
			fail(lineNo, "sample %s has no preceding # HELP and # TYPE for family %s", name, famName)
			// Record it anyway so one missing header does not cascade.
			f = fam(famName)
		}
		f.sampleSeen = true

		canon := name + canonicalLabels(labels)
		if prev, dup := seriesSeen[canon]; dup {
			fail(lineNo, "duplicate series %s (first at line %d)", canon, prev)
		}
		seriesSeen[canon] = lineNo

		if f.typ == "histogram" {
			key := famName + canonicalLabels(withoutLabel(labels, "le"))
			h, ok := hists[key]
			if !ok {
				h = &histSeries{buckets: make(map[float64]float64)}
				hists[key] = h
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				leStr, ok := labelValue(labels, "le")
				if !ok {
					fail(lineNo, "histogram bucket %s without le label", name)
					break
				}
				le, err := parseLe(leStr)
				if err != nil {
					fail(lineNo, "histogram bucket %s: bad le %q", name, leStr)
					break
				}
				h.buckets[le] = value
			case strings.HasSuffix(name, "_count"):
				v := value
				h.count = &v
			case strings.HasSuffix(name, "_sum"):
				v := value
				h.sum = &v
			}
		}
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, fmt.Errorf("reading exposition: %w", err))
	}

	// Histogram invariants, per label set.
	histKeys := make([]string, 0, len(hists))
	for k := range hists {
		histKeys = append(histKeys, k)
	}
	sort.Strings(histKeys)
	for _, key := range histKeys {
		h := hists[key]
		les := make([]float64, 0, len(h.buckets))
		for le := range h.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		if len(les) == 0 || !math.IsInf(les[len(les)-1], +1) {
			errs = append(errs, fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket", key))
		}
		prev := math.Inf(-1)
		prevLe := 0.0
		for i, le := range les {
			if c := h.buckets[le]; i > 0 && c < prev {
				errs = append(errs, fmt.Errorf("histogram %s: bucket le=%g count %g < le=%g count %g (not monotone)", key, le, c, prevLe, prev))
			} else {
				prev, prevLe = c, le
			}
		}
		if h.count == nil {
			errs = append(errs, fmt.Errorf("histogram %s: missing _count sample", key))
		} else if inf, ok := h.buckets[math.Inf(+1)]; ok && inf != *h.count {
			errs = append(errs, fmt.Errorf("histogram %s: le=\"+Inf\" bucket %g != _count %g", key, inf, *h.count))
		}
		if h.sum == nil {
			errs = append(errs, fmt.Errorf("histogram %s: missing _sum sample", key))
		}
	}
	return errs
}

// label is one parsed key/value pair.
type label struct{ key, value string }

// parseSample splits `name{k="v",...} value [timestamp]`.
func parseSample(line string) (name string, labels []label, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		end := -1
		inQuote, escaped := false, false
		for j := i + 1; j < len(rest); j++ {
			c := rest[j]
			switch {
			case escaped:
				escaped = false
			case c == '\\' && inQuote:
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err = parseLabels(rest[i+1 : end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		var ok bool
		name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			return "", nil, 0, fmt.Errorf("sample %q has no value", line)
		}
		rest = strings.TrimSpace(rest)
	}
	if name == "" || !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name in %q", line)
	}
	valStr, _, _ := strings.Cut(rest, " ") // optional timestamp after the value
	value, err = strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q in %q", valStr, line)
	}
	return name, labels, value, nil
}

func parseLabels(s string) ([]label, error) {
	var out []label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label pair in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		end := -1
		escaped := false
		for j := 1; j < len(s); j++ {
			c := s[j]
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		val, err := strconv.Unquote(s[:end+1])
		if err != nil {
			// Prometheus escaping is a subset of Go's; a value Go cannot
			// unquote is malformed for our own renderer too.
			return nil, fmt.Errorf("bad label value for %q: %v", key, err)
		}
		out = append(out, label{key: key, value: val})
		s = s[end+1:]
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(name) > 0
}

// canonicalLabels renders a sorted, normalized label string so series
// identity is independent of label order.
func canonicalLabels(labels []label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.value))
	}
	b.WriteByte('}')
	return b.String()
}

func withoutLabel(labels []label, key string) []label {
	out := make([]label, 0, len(labels))
	for _, l := range labels {
		if l.key != key {
			out = append(out, l)
		}
	}
	return out
}

func labelValue(labels []label, key string) (string, bool) {
	for _, l := range labels {
		if l.key == key {
			return l.value, true
		}
	}
	return "", false
}

// parseLe parses a histogram le bound, accepting "+Inf".
func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(+1), nil
	}
	return strconv.ParseFloat(s, 64)
}
