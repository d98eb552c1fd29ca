package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the repository's benchmark description, which must
// list exactly this package's workloads and metric catalog.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the package %q: %q", i, got, w.name, w.why)
		}
	}
	for _, c := range []struct {
		name      string
		file, pkg []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.pkg) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the package %d", c.name, len(c.file), len(c.pkg))
		}
		for i := range c.pkg {
			if c.file[i] != c.pkg[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package %+v", c.name, i, c.file[i], c.pkg[i])
			}
		}
	}
}

// TestSmokeEveryWorkload runs each workload's untraced and traced passes
// at smoke scale and checks the final output line: it parses, the rows
// verify, and every metric BENCHMARK.json names is there with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 7, smoke: true, tmpdir: t.TempDir()}
			plain, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			o.traced = true
			o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
			traced, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			setTraceOverhead(plain, traced)
			for _, pass := range []struct {
				defs   []metricDef
				traced *result
			}{{bf.EndToEnd, nil}, {bf.PerLayer, traced}} {
				out := outcome{Correct: true, Metrics: make(map[string]metricValue)}
				out.add(w, false, plain, pass.traced)
				line, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				var got outcome
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatalf("output line does not parse: %v", err)
				}
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Fatalf("outcome correct=%v attempted=%d failed=%d; mismatch: %s %s",
						got.Correct, got.Attempted, got.Failed, plain.Mismatch, traced.Mismatch)
				}
				if len(got.Metrics) != len(pass.defs) {
					t.Errorf("output has %d metrics, BENCHMARK.json %d", len(got.Metrics), len(pass.defs))
				}
				for _, d := range pass.defs {
					v, ok := got.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v), want unit %s and a finite value", d.Name, v, ok, d.Unit)
					}
				}
			}
			spans, err := os.ReadFile(o.spans)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(spans), `"layer":"server"`) {
				t.Errorf("span file has no server spans")
			}
		})
	}
}

// TestReferenceCheckCatchesDifference perturbs one reference row at a
// time; each perturbation must fail the bit-identity check and name the
// first differing row.
func TestReferenceCheckCatchesDifference(t *testing.T) {
	w, _ := lookupWorkload("serve-hist")
	for name, perturb := range map[string]func(r *row){
		"score one ulp": func(r *row) { r.score = math.Nextafter(r.score, math.Inf(1)) },
		"alarm":         func(r *row) { r.alarm = !r.alarm },
		"kappa":         func(r *row) { r.k = 0.5 },
		"bag_t":         func(r *row) { r.bagT++ },
	} {
		t.Run(name, func(t *testing.T) {
			o := options{seed: 3, smoke: true, tmpdir: t.TempDir()}
			o.tamper = func(stream string, bagT int, r *row) {
				if stream == "s0000" && bagT == 2*w.tau+3 {
					perturb(r)
				}
			}
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("a perturbed reference row passed the check")
			}
			if want := "stream s0000 bag 11 differs"; !strings.Contains(res.Mismatch, want) {
				t.Errorf("mismatch %q does not name %q", res.Mismatch, want)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartiles([]float64{2, 1}), [3]float64{0.75, 1.5, 2.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestCompareVerdicts feeds compare two directories of runs: a metric
// with a tight spread that worsened by more than its bound is "worse",
// and one whose spread exceeds its bound is "unresolved".
func TestCompareVerdicts(t *testing.T) {
	write := func(dir string, i int, bags, p50 float64) {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.Name] = 1
		}
		m["bags_per_s"], m["push_p50_ms"] = bags, p50
		doc := resultsDoc{Results: []*result{{Workload: "serve-hist", Metrics: m}}}
		blob, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, string(rune('a'+i))+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	for i := 0; i < 5; i++ {
		write(a, i, 1000+float64(i), 10*float64(i+1))
		write(b, i, 700+float64(i), 10*float64(i+1))
	}
	var out strings.Builder
	err := compare(&out, a, b)
	if err == nil {
		t.Fatal("compare passed a 30% capacity loss")
	}
	lines := strings.Split(out.String(), "\n")
	verdict := func(metric string) string {
		for _, l := range lines {
			if f := strings.Fields(l); len(f) > 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return ""
	}
	if v := verdict("bags_per_s"); v != "worse" {
		t.Errorf("bags_per_s verdict %q, want worse\n%s", v, out.String())
	}
	if v := verdict("push_p50_ms"); v != "unresolved" {
		t.Errorf("push_p50_ms verdict %q, want unresolved\n%s", v, out.String())
	}
	if v := verdict("setup_s"); v != "ok" {
		t.Errorf("setup_s verdict %q, want ok\n%s", v, out.String())
	}
}
