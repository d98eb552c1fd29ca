// Command benchguard is the CI bench-regression gate: it reads `go test
// -bench` output on stdin, extracts the best (minimum) ns/op observed
// per benchmark, and compares each against the after_ns_op recorded in a
// BENCH_PR*.json baseline. A benchmark slower than baseline by more than
// -max-regress percent fails the gate.
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkEMDSimplexK(128|256|512)$' -benchtime 10x -count 3 . \
//	  | go run ./cmd/benchguard -baseline BENCH_PR14.json
//
// Benchmarks present in the input but absent from the baseline (and vice
// versa) are skipped — the gate only judges the overlap, so one baseline
// file can guard a superset or subset of the smoke run. The comparison
// is deliberately one-sided: getting faster never fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// baselineFile is the subset of the BENCH_PR*.json schema the guard
// needs: benchmark name -> recorded after_ns_op.
type baselineFile struct {
	Benchmarks map[string]struct {
		AfterNsOp float64 `json:"after_ns_op"`
	} `json:"benchmarks"`
}

// parseBench extracts min ns/op per benchmark from `go test -bench`
// output. The trailing -N GOMAXPROCS suffix is stripped so names match
// the baseline regardless of the box's core count; sub-benchmark paths
// (Benchmark/case) are kept intact.
func parseBench(r io.Reader) (map[string]float64, error) {
	best := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// "BenchmarkName-4  100  12345 ns/op [...]"
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		nsIdx := -1
		for i, f := range fields {
			if f == "ns/op" {
				nsIdx = i - 1
				break
			}
		}
		if nsIdx < 1 {
			continue
		}
		ns, err := strconv.ParseFloat(fields[nsIdx], 64)
		if err != nil {
			return nil, fmt.Errorf("benchguard: bad ns/op %q in line %q", fields[nsIdx], sc.Text())
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if cur, ok := best[name]; !ok || ns < cur {
			best[name] = ns
		}
	}
	return best, sc.Err()
}

// run is the testable body: returns an error if any overlapping
// benchmark regressed past the threshold.
func run(baselinePath string, maxRegress float64, in io.Reader, out io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("benchguard: %w", err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchguard: parse %s: %w", baselinePath, err)
	}
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("benchguard: no benchmark results on input")
	}
	checked := 0
	var failures []string
	for name, ns := range got {
		b, ok := base.Benchmarks[name]
		if !ok || b.AfterNsOp <= 0 {
			continue
		}
		checked++
		limit := b.AfterNsOp * (1 + maxRegress/100)
		status := "ok"
		if ns > limit {
			status = "REGRESSED"
			failures = append(failures, name)
		}
		fmt.Fprintf(out, "%-36s %12.0f ns/op  baseline %12.0f  (limit %+.0f%%)  %s\n",
			name, ns, b.AfterNsOp, maxRegress, status)
	}
	if checked == 0 {
		return fmt.Errorf("benchguard: no overlap between input (%d benchmarks) and baseline %s", len(got), baselinePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchguard: %d benchmark(s) regressed >%g%% vs %s: %s",
			len(failures), maxRegress, baselinePath, strings.Join(failures, ", "))
	}
	fmt.Fprintf(out, "benchguard: %d benchmark(s) within %g%% of %s\n", checked, maxRegress, baselinePath)
	return nil
}

func main() {
	baseline := flag.String("baseline", "", "BENCH_PR*.json file holding after_ns_op baselines")
	maxRegress := flag.Float64("max-regress", 15, "max allowed slowdown vs baseline, percent")
	flag.Parse()
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline is required")
		os.Exit(2)
	}
	if err := run(*baseline, *maxRegress, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
