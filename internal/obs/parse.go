package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Sample is one parsed series sample. Name keeps any histogram/summary
// suffix (_bucket/_sum/_count); Labels is the canonical sorted label
// string (empty for unlabeled series) so samples from different
// producers compare equal exactly when they are the same series.
type Sample struct {
	Name   string
	Labels string
	Value  float64

	labels []label
}

// HasLabel reports whether the sample carries the given label key.
func (s Sample) HasLabel(key string) bool {
	_, ok := labelValue(s.labels, key)
	return ok
}

// Family is one parsed metric family: its HELP/TYPE metadata and every
// sample that belongs to it, in exposition order.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// familyOf resolves a sample name to the family that declares it, given
// each declared family's TYPE (typeOf returns "" for undeclared names):
// the name itself when it has a TYPE, else the base of a _bucket suffix
// on a histogram or of a _sum/_count suffix on a histogram or summary,
// else the name itself. Lint and ParseExposition share this rule.
func familyOf(sample string, typeOf func(name string) string) string {
	if typeOf(sample) != "" {
		return sample
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suffix); ok {
			if t := typeOf(base); t == "histogram" || (t == "summary" && suffix != "_bucket") {
				return base
			}
		}
	}
	return sample
}

// ParseExposition parses a Prometheus text page into its families, in
// order of first appearance. Samples with histogram/summary suffixes
// are attached to the base family that declared the matching TYPE, so a
// histogram's _bucket/_sum/_count rows travel with it. Families seen
// only through samples (no HELP/TYPE headers) come back with Type
// "untyped" and an empty Help. The first malformed sample line aborts
// with an error — this is a strict parser for expositions our own
// renderer (or a peer's) produced, not a lenient scraper.
func ParseExposition(r io.Reader) ([]*Family, error) {
	var order []*Family
	byName := make(map[string]*Family)
	get := func(name string) *Family {
		f, ok := byName[name]
		if !ok {
			f = &Family{Name: name}
			byName[name] = f
			order = append(order, f)
		}
		return f
	}
	// resolve maps a sample name to its declaring family (familyOf).
	resolve := func(sample string) *Family {
		return get(familyOf(sample, func(name string) string {
			if f := byName[name]; f != nil {
				return f.Type
			}
			return ""
		}))
	}

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
				f := get(fields[2])
				text := ""
				if len(fields) == 4 {
					text = fields[3]
				}
				if fields[1] == "HELP" {
					f.Help = text
				} else {
					f.Type = text
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		f := resolve(name)
		f.Samples = append(f.Samples, Sample{
			Name:   name,
			Labels: canonicalLabels(labels),
			Value:  value,
			labels: labels,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading exposition: %w", err)
	}
	for _, f := range order {
		if f.Type == "" {
			f.Type = "untyped"
		}
	}
	return order, nil
}
