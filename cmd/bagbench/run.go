package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Phase labels, as they appear on spans.
const (
	phaseSetup    = "setup"
	phaseCapacity = "capacity"
	phaseLatency  = "latency"
)

// options configure one workload run.
type options struct {
	seed    int64
	seconds float64
	smoke   bool
	traced  bool
	tmpdir  string // parent of the run's oplog directory
	spans   string // append the traced run's spans to this file

	// tamper corrupts reference rows before the comparison (tests).
	tamper func(stream string, t int, r *row)
}

// result is one workload run, as a child process reports it.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Mismatch  string             `json:"mismatch,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes are the sample counts and reconciliation terms the report
	// prints beside the metrics.
	Notes map[string]float64 `json:"notes"`
}

// run is the state of one workload run.
type run struct {
	w     workload
	o     options
	tr    *tracer
	pool  *pool
	gens  [2]*connGen
	conns [2]*conn
	sys   *system
	res   *result
}

// runWorkload sets the system up (repeatedly in a full run), runs the
// capacity and latency phases, checks every verified row against the
// reference engine, and measures the retained heap.
func runWorkload(w workload, o options) (*result, error) {
	if o.smoke {
		w = w.smoke()
	}
	r := &run{w: w, o: o, res: &result{
		Workload: w.name, Traced: o.traced,
		Metrics: make(map[string]float64), Notes: make(map[string]float64),
	}}
	if o.traced {
		r.tr = newTracer(w)
	}
	r.pool = newPool(w, o.seed)

	reps := maxSetups
	if o.smoke {
		reps = 1
	}
	defer r.teardown()
	var setups []float64
	var spent time.Duration
	for rep := 0; rep < reps && (rep < minSetups || spent < setupBudget); rep++ {
		r.teardown()
		d, err := r.setup(rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	r.res.Metrics["setup_s"] = median(setups)
	r.res.Notes["setups"] = float64(len(setups))

	if err := r.measure(); err != nil {
		return nil, err
	}
	r.verify()

	// The retained heap: generator pools and result rows released, only
	// the servers' state and the run's bookkeeping left.
	r.pool, r.gens = nil, [2]*connGen{}
	for _, c := range r.conns {
		c.gen, c.rows = nil, nil
		c.client.CloseIdleConnections()
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.Metrics["heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(r.sys)

	if r.tr != nil && o.spans != "" {
		if err := writeSpans(o.spans, r.tr.snapshot()); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r.res, nil
}

// setup is timed from the first constructor call until every stream has
// scored; a durable workload then also crash-restarts its server, which
// replays the warm-up's oplog before it serves again.
func (r *run) setup(rep int) (time.Duration, error) {
	dir, err := os.MkdirTemp(r.o.tmpdir, fmt.Sprintf("bagbench-%s-%d-", r.w.name, rep))
	if err != nil {
		return 0, err
	}
	r.gens = newGens(r.w, r.o.seed, r.pool)
	for c := range r.conns {
		r.conns[c] = newConn(c, r.gens[c], r.tr)
	}
	r.tr.setPhase(phaseSetup)
	start := time.Now()
	r.sys, err = startSystem(r.w, dir, r.tr)
	if err != nil {
		removeScratch(dir)
		return 0, err
	}
	url := r.sys.pushURL()
	both(r.conns, func(c *conn) { c.warm(url, r.w.batch, r.w.warmBags()) })
	if r.w.durable {
		if err := r.sys.restart(); err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	for _, c := range r.conns {
		// A restarted member listens on a new port; drop the old sockets.
		c.client.CloseIdleConnections()
		if c.failed > 0 {
			return 0, fmt.Errorf("set-up: %d of %d rows failed", c.failed, c.attempted)
		}
		c.attempted = 0
	}
	return d, nil
}

// teardown stops the system, if one is running, and deletes its oplog.
func (r *run) teardown() {
	if r.sys == nil {
		return
	}
	for _, c := range r.conns {
		c.client.CloseIdleConnections()
	}
	r.sys.close()
	removeScratch(r.sys.dir)
	r.sys = nil
}

// removeScratch deletes a run's oplog directory. A failure leaves files
// under the scratch directory and does not change any result, so it is
// only reported.
func removeScratch(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bagbench: removing %s: %v\n", dir, err)
	}
}

// measureRounds is how many times the run alternates a slice of the
// capacity phase with a slice of the latency phase. Spreading each phase
// over the whole run lets the best-quarter capacity figures and the
// latency median sample more of the neighbours' bursts of load.
const measureRounds = 4

// measure runs the closed-loop capacity phase and the open-loop latency
// phase, in alternating slices, reading the members' /metrics and the
// runtime's counters around each slice.
func (r *run) measure() error {
	w, res := r.w, r.res
	capN, latN := w.scaled(r.o.seconds)
	if r.o.smoke {
		capN, latN = w.capBatches, w.latBatches
	}
	url := r.sys.pushURL()
	var capRes capacityResult
	var latRes latencyResult
	capGrowth, latGrowth := newGrowth(), newGrowth()
	for round := 0; round < measureRounds; round++ {
		n := capN/measureRounds + btoi(round < capN%measureRounds)
		r.tr.setPhase(phaseCapacity)
		if err := capGrowth.around(r.sys, func() { runCapacity(r.conns, url, n, w.batch, &capRes) }); err != nil {
			return err
		}
		n = latN/measureRounds + btoi(round < latN%measureRounds)
		r.tr.setPhase(phaseLatency)
		if err := latGrowth.around(r.sys, func() { runLatency(r.conns, url, n, w.batch, w.latRate, &latRes) }); err != nil {
			return err
		}
	}
	r.tr.setPhase("")

	bags, batches := float64(capRes.bags), float64(capRes.batches)
	mem := capGrowth.mem
	res.Metrics["bags_per_s"] = bestQuarter(capRes.rates, true)
	res.Metrics["cpu_us_per_bag"] = bestQuarter(capRes.cpus, false)
	res.Metrics["allocs_per_bag"] = float64(mem.mallocs) / bags
	res.Metrics["push_p50_ms"] = median(latRes.lat)
	for _, c := range r.conns {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	res.Metrics["ok_frac"] = 1 - ratio(float64(res.Failed), float64(res.Attempted))

	res.Notes["capacity_batches"] = batches
	res.Notes["capacity_wall_s"] = capRes.wall.Seconds()
	res.Notes["latency_batches"] = float64(latN)
	res.Notes["latency_samples"] = float64(len(latRes.lat))
	// The tail is reported beside the metrics, not gated: bursts of
	// interference on a shared machine move it by tens of percent between
	// identical runs.
	res.Notes["push_p99_ms"] = quantile(latRes.lat, 0.99)
	res.Notes["latency_beyond_p99"] = float64(countAbove(latRes.lat, res.Notes["push_p99_ms"]))
	res.Notes["latency_wall_s"] = latRes.wall.Seconds()
	res.Notes["latency_rate"] = w.latRate
	res.Notes["gen_late_ms_p99"] = quantile(latRes.late, 0.99)

	// Per-layer counters, each measured where the work happens: the
	// engine's stage histograms, solver counters, oplog and pool series
	// over the capacity phase; spans over the latency phase.
	m, g := res.Metrics, capGrowth.metrics
	for _, stage := range []string{"preprocess", "signature", "emd", "bootstrap"} {
		m["engine."+stage+"_us_per_bag"] = g.sum("bagcpd_push_stage_seconds_sum", `stage="`+stage+`"`) / bags * 1e6
	}
	m["emd.pivots_per_bag"] = g.sum("bagcpd_push_solver_pivots_total") / bags
	m["emd.ground_evals_per_bag"] = g.sum("bagcpd_push_solver_ground_evals_total") / bags
	hits := g.sum("bagcpd_push_solver_cache_hits_total")
	m["emd.cache_hit_ratio"] = ratio(hits, hits+g.sum("bagcpd_push_solver_cache_misses_total"))
	m["oplog.fsync_ms_mean"] = ratio(g.sum("bagcpd_oplog_fsync_seconds_sum"), g.sum("bagcpd_oplog_fsync_seconds_count")) * 1e3
	m["oplog.fsyncs_per_batch"] = g.sum("bagcpd_oplog_fsyncs_total") / batches
	m["oplog.bytes_per_bag"] = g.sum("bagcpd_oplog_bytes_total") / bags
	m["pool.spills_per_batch"] = g.sum("bagcpd_pool_spills_total") / batches
	m["pool.faultins_per_batch"] = g.sum("bagcpd_pool_faultins_total") / batches
	m["pool.resident_peak"] = latGrowth.last.sum("bagcpd_pool_resident_peak")
	m["gc.cycles_per_kbag"] = float64(mem.numGC) / bags * 1e3
	m["gc.pause_us_per_batch"] = float64(mem.pauseNs) / 1e3 / batches
	m["alloc_bytes_per_bag"] = float64(mem.totalAlloc) / bags
	m["gen.late_ms_p99"] = res.Notes["gen_late_ms_p99"]
	if r.tr != nil {
		r.layers(latGrowth.metrics.sum("bagcpd_push_batch_seconds_sum"))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// layers derives the span metrics of the latency phase and the
// reconciliation of layer means against the client mean.
func (r *run) layers(batchMetricSum float64) {
	m, notes := r.res.Metrics, r.res.Notes
	lt := analyze(r.tr.snapshot(), phaseLatency)
	m["transport.self_ms_p50"] = median(lt.transport)
	m["router.self_ms_p50"] = median(lt.routerSelf)
	m["router.member_skew_ms_p50"] = median(lt.skew)
	m["router.members_per_batch"] = 1
	if r.w.members > 0 {
		m["router.members_per_batch"] = mean(lt.members)
	}
	m["server.push_ms_p50"] = median(lt.server)
	m["server.push_ms_p99"] = quantile(lt.server, 0.99)
	m["server.batch_metric_coverage"] = ratio(batchMetricSum, lt.serverSum)

	client := mean(lt.client)
	notes["recon_client_ms"] = client
	notes["recon_transport_ms"] = mean(lt.transport)
	notes["recon_router_self_ms"] = mean(lt.routerSelf)
	notes["recon_server_ms"] = mean(lt.block)
	notes["recon_unmatched"] = float64(lt.unmatched)
	sum := notes["recon_transport_ms"] + notes["recon_router_self_ms"] + notes["recon_server_ms"]
	m["trace.residual_pct"] = ratio(client-sum, client) * 100
}

// verify checks the served results after timing: push counts on
// /v1/streams, then every verified row against the reference engine.
func (r *run) verify() {
	res := r.res
	res.Correct = true
	if err := checkPushCounts(r.sys, r.gens); err != nil {
		res.Correct, res.Mismatch = false, err.Error()
		return
	}
	streams, rows, err := checkReference(r.w, r.pool, r.gens, r.o.tamper)
	res.Notes["verified_streams"] = float64(streams)
	res.Notes["verified_rows"] = float64(rows)
	if err != nil {
		res.Correct, res.Mismatch = false, err.Error()
	}
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// tmpdirFor resolves the run's scratch directory and makes sure it exists.
func tmpdirFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return abs, os.MkdirAll(abs, 0o755)
}
