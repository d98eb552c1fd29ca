package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEMDSimplexK128-4 	      10	   3000000 ns/op
BenchmarkEMDSimplexK128-4 	      10	   2900000 ns/op
BenchmarkEMDSimplexK256 	      10	  13100000 ns/op
BenchmarkDetectorPushHistogram/cache-4 	 5000	 250000 ns/op	0 B/op	0 allocs/op
BenchmarkUnrelated-4 	 100	 999999 ns/op
PASS
ok  	repro	2.394s
`

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchKeepsMinAndStripsCPUSuffix(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkEMDSimplexK128"] != 2900000 {
		t.Errorf("K128 min = %g, want 2900000 (best of the -count runs)", got["BenchmarkEMDSimplexK128"])
	}
	if got["BenchmarkEMDSimplexK256"] != 13100000 {
		t.Errorf("K256 = %g (no -N suffix variant)", got["BenchmarkEMDSimplexK256"])
	}
	if got["BenchmarkDetectorPushHistogram/cache"] != 250000 {
		t.Errorf("sub-benchmark = %g, want 250000 with suffix stripped and path kept", got["BenchmarkDetectorPushHistogram/cache"])
	}
	if len(got) != 4 {
		t.Errorf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
}

func TestRunPassesWithinThreshold(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks":{
		"BenchmarkEMDSimplexK128":{"after_ns_op":2881765},
		"BenchmarkEMDSimplexK256":{"after_ns_op":12973307}}}`)
	var out strings.Builder
	// K128: 2900000 vs 2881765 is +0.6%; K256: 13100000 vs 12973307 is
	// +1.0% — both inside the 15% gate. BenchmarkUnrelated has no
	// baseline and must be skipped, not failed.
	if err := run(base, 15, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 benchmark(s) within 15%") {
		t.Errorf("summary missing:\n%s", out.String())
	}
}

func TestRunFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks":{
		"BenchmarkEMDSimplexK128":{"after_ns_op":2000000},
		"BenchmarkEMDSimplexK256":{"after_ns_op":12973307}}}`)
	var out strings.Builder
	err := run(base, 15, strings.NewReader(sampleBench), &out)
	if err == nil {
		t.Fatalf("run passed despite K128 at 2900000 vs baseline 2000000 (+45%%)\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkEMDSimplexK128") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("report does not flag the regression:\n%s", out.String())
	}
}

func TestRunErrorsWithoutOverlapOrInput(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks":{"BenchmarkNeverRun":{"after_ns_op":1}}}`)
	var out strings.Builder
	if err := run(base, 15, strings.NewReader(sampleBench), &out); err == nil || !strings.Contains(err.Error(), "no overlap") {
		t.Errorf("want no-overlap error, got %v", err)
	}
	if err := run(base, 15, strings.NewReader("PASS\nok repro 1s\n"), &out); err == nil || !strings.Contains(err.Error(), "no benchmark results") {
		t.Errorf("want empty-input error, got %v", err)
	}
	if err := run(filepath.Join(t.TempDir(), "missing.json"), 15, strings.NewReader(sampleBench), &out); err == nil {
		t.Error("want error for missing baseline file")
	}
}

// TestGateOnlyTightens pins the rule for replacing the CI baseline: the
// file CI gates against (BENCH_PR14.json) must carry every row the
// previous baseline (BENCH_PR6.json) gated, none of them looser.
func TestGateOnlyTightens(t *testing.T) {
	load := func(name string) baselineFile {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		var b baselineFile
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return b
	}
	prev, cur := load("BENCH_PR6.json"), load("BENCH_PR14.json")
	for name, p := range prev.Benchmarks {
		c, ok := cur.Benchmarks[name]
		if !ok {
			t.Errorf("%s: gated by BENCH_PR6.json but missing from BENCH_PR14.json", name)
			continue
		}
		if c.AfterNsOp > p.AfterNsOp {
			t.Errorf("%s: baseline loosened from %.0f to %.0f ns/op", name, p.AfterNsOp, c.AfterNsOp)
		}
	}
}
