package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// compare prints, for every (end-to-end metric, workload), the median
// and quartiles of the untraced passes in dirA and in dirB, and B's
// change against A. A metric whose spread, the distance between its
// quartiles as a share of its median, exceeds its bound on either side
// is unresolved: the runs cannot tell a change of that size from noise.
func compare(w io.Writer, dirA, dirB string) error {
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tB vs A\tbound\tverdict\t\n")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.vals[wl.name][d.Name], b.vals[wl.name][d.Name]
			if len(va) < 2 || len(vb) < 2 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			change := (qb[1] - qa[1]) / qa[1]
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case spread(qa) > d.Bound || spread(qb) > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g..%.5g\t%.5g\t%.5g..%.5g\t%+.2f%%\t%.1f%%\t%s\t\n",
				wl.name, d.Name, d.Unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], change*100, d.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "runs: A %s (%d files), B %s (%d files); \"B vs A\" is positive when B is worse\n",
		dirA, a.files, dirB, b.files)
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse by more than their bound", worse)
	}
	return nil
}

// runs holds one directory's untraced passes: workload → metric → one
// value per pass.
type runs struct {
	files int
	vals  map[string]map[string][]float64
}

func loadRuns(dir string) (runs, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return runs{}, err
	}
	if len(paths) == 0 {
		return runs{}, fmt.Errorf("no *.json results in %s", dir)
	}
	r := runs{files: len(paths), vals: make(map[string]map[string][]float64)}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return runs{}, err
		}
		var doc resultsDoc
		if err := json.Unmarshal(blob, &doc); err != nil {
			return runs{}, fmt.Errorf("%s: %w", p, err)
		}
		for _, res := range doc.Results {
			if res.Traced {
				continue
			}
			if r.vals[res.Workload] == nil {
				r.vals[res.Workload] = make(map[string][]float64)
			}
			for _, d := range endToEnd {
				r.vals[res.Workload][d.Name] = append(r.vals[res.Workload][d.Name], res.Metrics[d.Name])
			}
		}
	}
	return r, nil
}

// quartiles returns q1, median, q3 by the rule of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(n-1, i*m/4))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		if q[2] == q[0] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}
