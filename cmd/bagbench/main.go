// Command bagbench is the serving benchmark. One process generates load
// over exactly two client connections against in-process server.Server
// and router.Router instances on loopback listeners, reports end-to-end
// metrics from an untraced pass and per-layer metrics from a separate
// traced pass, and checks served rows bit for bit against a plain
// core.Engine.
//
// Run it from the repository root (run.sh builds it first):
//
//	sh cmd/bagbench/run.sh [-workload NAME|all] [-seed N] [-seconds S]
//	        [-trace 0|1] [-spans spans.jsonl] [-json out.json] [-scale full|smoke]
//	sh cmd/bagbench/run.sh -compare dirA dirB
//
// Every pass runs in a fresh child process (the binary re-executes
// itself), so heap, GC and page-cache state do not leak between
// workloads. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end
// metrics, or with -trace 1 the per-layer ones. The exit status is 1
// when a served row differs from the reference engine.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated bags and stream choice")
		seconds = flag.Float64("seconds", stdSeconds, "run length; phase batch counts scale with it, rates do not")
		trace   = flag.Int("trace", 0, "1: add a traced pass and report the per-layer metrics")
		spans   = flag.String("spans", "", "write the traced pass's spans to this JSONL file (implies -trace 1)")
		jsonOut = flag.String("json", "", "write every pass's results and the machine description to this file")
		scale   = flag.String("scale", "full", "full, or smoke for a seconds-long check of every code path")
		cmp     = flag.Bool("compare", false, "compare two directories of -json results: -compare dirA dirB")
		tmpdir  = flag.String("tmpdir", ".bench_build/tmp", "scratch directory for oplogs")
		child   = flag.Bool("child", false, "run one pass in this process and print its result (used by the parent)")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatalf("-compare needs two directories")
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *scale != "full" && *scale != "smoke" {
		fatalf("-scale must be full or smoke, got %q", *scale)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		fatalf("-seconds must be positive")
	}
	dir, err := tmpdirFor(*tmpdir)
	if err != nil {
		fatalf("%v", err)
	}
	o := options{seed: *seed, seconds: *seconds, smoke: *scale == "smoke", traced: *trace == 1 || *spans != "", tmpdir: dir, spans: *spans}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fatalf("unknown workload %q", *name)
	}

	if *child {
		res, err := runWorkload(selected[0], o)
		if err != nil {
			fatalf("%s: %v", selected[0].name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
		return
	}

	if o.spans != "" {
		// Children append one workload after another.
		if err := os.WriteFile(o.spans, nil, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	var all []*result
	out := outcome{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range selected {
		plain, err := runChild(w, o, false)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		all = append(all, plain)
		var traced *result
		if o.traced {
			if traced, err = runChild(w, o, true); err != nil {
				fatalf("%s: %v", w.name, err)
			}
			setTraceOverhead(plain, traced)
			all = append(all, traced)
		}
		report(os.Stdout, w, o, plain, traced)
		out.add(w, len(selected) > 1, plain, traced)
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, o, all); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
	if !out.Correct {
		os.Exit(1)
	}
}

// runChild runs one pass of w in a fresh process and returns its result.
func runChild(w workload, o options, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	scale := "full"
	if o.smoke {
		scale = "smoke"
	}
	args := []string{"-child", "-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", scale, "-tmpdir", o.tmpdir, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child pass: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte{'\n'})
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("child pass result: %w", err)
	}
	return &res, nil
}

// setTraceOverhead records how much tracing cost: the traced pass's
// capacity shortfall against the untraced pass, in percent.
func setTraceOverhead(plain, traced *result) {
	traced.Metrics["trace.overhead_pct"] = ratio(plain.Metrics["bags_per_s"]-traced.Metrics["bags_per_s"], plain.Metrics["bags_per_s"]) * 100
}

// metricValue and outcome are the shape of the final stdout line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// add folds one workload's passes in. With several workloads the metric
// names gain a "workload/" prefix.
func (o *outcome) add(w workload, prefixed bool, plain, traced *result) {
	defs, src := endToEnd, plain
	if traced != nil {
		defs, src = perLayer, traced
	}
	for _, res := range []*result{plain, traced} {
		if res == nil {
			continue
		}
		o.Correct = o.Correct && res.Correct
		o.Attempted += res.Attempted
		o.Failed += res.Failed
	}
	for _, d := range defs {
		key := d.Name
		if prefixed {
			key = w.name + "/" + d.Name
		}
		o.Metrics[key] = metricValue{src.Metrics[d.Name], d.Unit}
	}
}

// report prints one workload's human-readable summary.
func report(f *os.File, w workload, o options, plain, traced *result) {
	bw := bufio.NewWriter(f)
	defer bw.Flush()
	n := plain.Notes
	fmt.Fprintf(bw, "== %s  seed %d  capacity %.0f batches, latency %.0f batches at %.0f/s, %d rows each\n",
		w.name, o.seed, n["capacity_batches"], n["latency_batches"], n["latency_rate"], w.batch)
	fmt.Fprintf(bw, "end-to-end (untraced)\n")
	for _, d := range endToEnd {
		fmt.Fprintf(bw, "  %-16s %14.6g %-7s bound %.1f%%\n", d.Name, plain.Metrics[d.Name], d.Unit, d.Bound*100)
	}
	fmt.Fprintf(bw, "  push_p99_ms %.6g ms over %.0f samples (%.0f beyond; reported, not gated), generator late p99 %.3f ms, rows failed %d of %d\n",
		n["push_p99_ms"], n["latency_samples"], n["latency_beyond_p99"], n["gen_late_ms_p99"], plain.Failed, plain.Attempted)
	for _, res := range []*result{plain, traced} {
		if res == nil {
			continue
		}
		pass := "untraced"
		if res.Traced {
			pass = "traced"
		}
		if res.Correct {
			fmt.Fprintf(bw, "  verified (%s pass): push counts match; %.0f streams, %.0f rows bit-identical to the reference engine\n",
				pass, res.Notes["verified_streams"], res.Notes["verified_rows"])
		} else {
			fmt.Fprintf(bw, "  VERIFY FAILED (%s pass): %s\n", pass, res.Mismatch)
		}
	}
	if traced == nil {
		return
	}
	fmt.Fprintf(bw, "per-layer (traced)\n")
	for _, d := range perLayer {
		fmt.Fprintf(bw, "  %-30s %14.6g %s\n", d.Name, traced.Metrics[d.Name], d.Unit)
	}
	t := traced.Notes
	fmt.Fprintf(bw, "reconciliation (latency phase means, ms)\n")
	fmt.Fprintf(bw, "  client %.4f vs transport %.4f + router.self %.4f + server.push %.4f = %.4f; residual %.2f%%, %.0f pushes without handler spans\n",
		t["recon_client_ms"], t["recon_transport_ms"], t["recon_router_self_ms"], t["recon_server_ms"],
		t["recon_transport_ms"]+t["recon_router_self_ms"]+t["recon_server_ms"],
		traced.Metrics["trace.residual_pct"], t["recon_unmatched"])
	fmt.Fprintf(bw, "  trace overhead %.2f%% of untraced bags/s\n", traced.Metrics["trace.overhead_pct"])
}

// resultsDoc is the -json file: the machine, the run settings, and every
// pass's result.
type resultsDoc struct {
	Machine map[string]string `json:"machine"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Smoke   bool              `json:"smoke"`
	Results []*result         `json:"results"`
}

func writeResults(path string, o options, results []*result) error {
	doc := resultsDoc{Machine: machine(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Results: results}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// machine describes where the numbers were measured.
func machine() map[string]string {
	m := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bagbench: "+format+"\n", args...)
	os.Exit(2)
}
