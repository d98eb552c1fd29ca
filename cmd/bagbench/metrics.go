package main

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
)

// metricDef is one catalog entry. BENCHMARK.json lists the same entries;
// the package test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by (end-to-end only)
}

// endToEnd metrics come from the untraced run. The bounds of the timed
// metrics are as wide as run-to-run drift on a shared 2-vCPU virtual
// machine requires (see README.md); the counts repeat to within 1%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"bags_per_s", "bags/s", "higher", 0.25},
	{"cpu_us_per_bag", "us", "lower", 0.25},
	{"push_p50_ms", "ms", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.001},
	{"allocs_per_bag", "count", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// perLayer metrics come from the traced run. A layer a workload does not
// have (the router outside route-fleet, the oplog and pool outside
// serve-durable, the simplex on histogram bags) reads 0.
var perLayer = []metricDef{
	{"transport.self_ms_p50", "ms", "lower", 0},
	{"router.self_ms_p50", "ms", "lower", 0},
	{"router.member_skew_ms_p50", "ms", "lower", 0},
	{"router.members_per_batch", "count", "lower", 0},
	{"server.push_ms_p50", "ms", "lower", 0},
	{"server.push_ms_p99", "ms", "lower", 0},
	{"server.batch_metric_coverage", "ratio", "higher", 0},
	{"engine.preprocess_us_per_bag", "us", "lower", 0},
	{"engine.signature_us_per_bag", "us", "lower", 0},
	{"engine.emd_us_per_bag", "us", "lower", 0},
	{"engine.bootstrap_us_per_bag", "us", "lower", 0},
	{"emd.pivots_per_bag", "count", "lower", 0},
	{"emd.ground_evals_per_bag", "count", "lower", 0},
	{"emd.cache_hit_ratio", "ratio", "higher", 0},
	{"oplog.fsync_ms_mean", "ms", "lower", 0},
	{"oplog.fsyncs_per_batch", "count", "lower", 0},
	{"oplog.bytes_per_bag", "bytes", "lower", 0},
	{"pool.spills_per_batch", "count", "lower", 0},
	{"pool.faultins_per_batch", "count", "lower", 0},
	{"pool.resident_peak", "count", "lower", 0},
	{"gc.cycles_per_kbag", "count", "lower", 0},
	{"gc.pause_us_per_batch", "us", "lower", 0},
	{"alloc_bytes_per_bag", "bytes", "lower", 0},
	{"gen.late_ms_p99", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.residual_pct", "%", "lower", 0},
}

// scrape is one reading of the members' /metrics pages, summed across
// members: series name plus canonical labels → value.
type scrape map[string]float64

func scrapeMembers(s *system) (scrape, error) {
	out := make(scrape)
	for _, m := range s.members {
		page, err := get(m.ln.url + "/metrics")
		if err != nil {
			return nil, err
		}
		fams, err := obs.ParseExposition(bytes.NewReader(page))
		if err != nil {
			return nil, err
		}
		for _, f := range fams {
			for _, smp := range f.Samples {
				out[smp.Name+smp.Labels] += smp.Value
			}
		}
	}
	return out, nil
}

// sum adds the series named name whose labels contain every given
// key="value" pair.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for key, v := range s {
		series, lbl, _ := strings.Cut(key, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lbl, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// memReading is the Go runtime's allocation and GC counters.
type memReading struct {
	mallocs, totalAlloc, pauseNs uint64
	numGC                        uint32
}

func readMem() memReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memReading{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC}
}

// growth sums the increase of every /metrics series and runtime counter
// over the slices of one phase.
type growth struct {
	metrics scrape
	last    scrape // the latest reading, for gauges
	mem     memReading
}

func newGrowth() *growth { return &growth{metrics: make(scrape)} }

// around runs f between two readings and adds what grew. The scrapes
// sit outside the runtime readings, so their own allocations are not
// counted.
func (g *growth) around(s *system, f func()) error {
	before, err := scrapeMembers(s)
	if err != nil {
		return err
	}
	m0 := readMem()
	f()
	m1 := readMem()
	after, err := scrapeMembers(s)
	if err != nil {
		return err
	}
	for k, v := range after {
		g.metrics[k] += v - before[k]
	}
	g.last = after
	g.mem.mallocs += m1.mallocs - m0.mallocs
	g.mem.totalAlloc += m1.totalAlloc - m0.totalAlloc
	g.mem.pauseNs += m1.pauseNs - m0.pauseNs
	g.mem.numGC += m1.numGC - m0.numGC
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quantile uses the same rank rule as the server's summaries: the
// ceil(p·n)-th smallest sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(1, min(len(s), int(math.Ceil(p*float64(len(s))))))
	return s[rank-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not have).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
