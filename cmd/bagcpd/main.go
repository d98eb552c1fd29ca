// Command bagcpd runs the bag-of-data change-point detector over a
// stream of bags read from stdin (or a file) and writes one CSV row per
// inspection point: time, score, confidence interval, kappa, alarm.
//
// Input formats (-format):
//
//	jsonl  one JSON array of points per line, each point an array of
//	       numbers: [[1.2, 0.3], [0.9, -0.1], ...]; a line is one bag.
//	csv    one observation per line as "t,v1,v2,..."; consecutive lines
//	       with the same integer t form one bag (t must be
//	       non-decreasing).
//
// With -streams the input multiplexes MANY independent streams and the
// detector engine fans them across -workers goroutines (jsonl only):
// each line is an object {"stream": "id", "points": [[...], ...]}, bags
// are batched -batch lines at a time through the engine's batch push,
// and the output gains a leading stream column. Every stream's rows are
// bit-identical to running that stream alone through a single detector
// seeded from (-seed, stream id), whatever the batch interleaving or
// worker count.
//
// With -serve the detector engine instead runs as a long-lived HTTP
// service: NDJSON batch ingest on POST /v1/push, stream lifecycle
// endpoints, engine snapshot/restore (GET /v1/snapshot, POST
// /v1/restore) for moving streams between instances, idle-stream TTL
// eviction (-idle-ttl), bounded in-flight batches (-max-inflight; 429 on
// overflow) and Prometheus metrics on GET /metrics. With -oplog DIR the
// service is crash-durable: every acknowledged push row is fsynced to a
// write-ahead oplog before its 200, and a restarted (even SIGKILL'd)
// instance replays the directory back to exactly the acknowledged
// state. -pool-max (which requires -oplog) bounds the resident detector
// pool, spilling idle streams to <oplog>/streams and faulting them back
// in on push. On SIGINT/SIGTERM the service drains: in-flight
// requests finish and, with -oplog, the log collapses into a final
// checkpoint, so a restart on the same directory resumes every stream
// (spilled ones included) without replaying a record. Operational output
// (the bound listen address, drain progress, slow batches, evictions)
// goes to stderr as structured log records — text by default, JSON with
// -log-format json, verbosity via -log-level; the serving announcement
// carries the bound address as addr= (use port 0 to let the OS pick).
// -debug-addr binds a second listener with pprof and process runtime
// gauges; -slow-push tunes the slow-batch warning threshold.
//
// Example:
//
//	bagcpd -tau 5 -tau-prime 5 -score kl -k 8 < bags.jsonl
//	bagcpd -format csv -hist-lo -10 -hist-hi 10 -hist-bins 40 < points.csv
//	bagcpd -streams -workers 8 -hist-lo -10 -hist-hi 10 -hist-bins 40 < multiplexed.jsonl
//	bagcpd -serve :8080 -hist-lo -10 -hist-hi 10 -hist-bins 40 -idle-ttl 10m
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		format   = flag.String("format", "jsonl", "input format: jsonl|csv")
		tau      = flag.Int("tau", 5, "reference window length τ")
		tauPrime = flag.Int("tau-prime", 5, "test window length τ′")
		score    = flag.String("score", "kl", "change-point statistic: "+strings.Join(repro.StatisticNames(), "|"))
		k        = flag.Int("k", 8, "k-means signature size (multi-dimensional bags)")
		histLo   = flag.Float64("hist-lo", 0, "histogram lower bound (1-D bags; with -hist-bins > 0)")
		histHi   = flag.Float64("hist-hi", 0, "histogram upper bound")
		histBins = flag.Int("hist-bins", 0, "histogram bins; 0 selects k-means signatures")
		reps     = flag.Int("bootstrap", 1000, "Bayesian bootstrap replicates")
		alpha    = flag.Float64("alpha", 0.05, "significance level")
		seed     = flag.Int64("seed", 1, "RNG seed")
		input    = flag.String("in", "-", "input path, or - for stdin")
		streams  = flag.Bool("streams", false, "multi-stream mode: jsonl lines are {\"stream\":id,\"points\":[...]}")
		workers  = flag.Int("workers", 0, "engine worker goroutines for -streams (0 = GOMAXPROCS)")
		batch    = flag.Int("batch", 256, "bags per engine batch in -streams mode")

		serve       = flag.String("serve", "", "run as an HTTP service on this address (e.g. :8080; port 0 picks a free port)")
		maxInflight = flag.Int("max-inflight", 0, "serve mode: concurrent push batches before 429 (0 = default)")
		maxBatch    = flag.Int("max-batch", 0, "serve mode: max bags per push batch (0 = default)")
		idleTTL     = flag.Duration("idle-ttl", 0, "serve mode: evict streams idle this long (0 disables eviction)")
		slowPush    = flag.Duration("slow-push", 0, "serve mode: warn-log push batches at or above this duration (0 = default 1s; negative disables)")
		oplogDir    = flag.String("oplog", "", "serve mode: write-ahead oplog directory — acknowledged pushes survive SIGKILL and replay at startup")
		poolMax     = flag.Int("pool-max", 0, "serve mode: max resident detector streams; idle overflow spills to <oplog>/streams (requires -oplog; 0 = unbounded)")

		route    = flag.String("route", "", "run as a cluster router on this address, forwarding to -members")
		members  = flag.String("members", "", "route mode: comma-separated member base URLs (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080)")
		replicas = flag.Int("replicas", 0, "route mode: virtual nodes per member on the hash ring (0 = default)")

		logLevel  = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log output format: text|json")
		debugAddr = flag.String("debug-addr", "", "serve/route mode: bind a debug listener (pprof + runtime metrics) on this address")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fatalf("%v", err)
	}

	if *route != "" {
		if err := runRoute(*route, *members, *replicas, *debugAddr, logger); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *k < 1 {
		fatalf("-k must be >= 1, got %d", *k)
	}
	if *histBins < 0 {
		fatalf("-hist-bins must be >= 0 (0 selects k-means), got %d", *histBins)
	}
	var factory repro.BuilderFactory
	var builderTag string
	if *histBins > 0 {
		if !(*histHi > *histLo) {
			fatalf("-hist-hi must exceed -hist-lo")
		}
		factory = repro.HistogramFactory(*histLo, *histHi, *histBins)
		builderTag = fmt.Sprintf("hist(lo=%g,hi=%g,bins=%d)", *histLo, *histHi, *histBins)
	} else {
		factory = repro.KMeansFactory(*k)
		builderTag = fmt.Sprintf("kmeans(k=%d)", *k)
	}
	statName, err := statisticFromFlag(*score)
	if err != nil {
		fatalf("%v", err)
	}
	bootCfg := repro.BootstrapConfig{Replicates: *reps, Alpha: *alpha}

	if *serve != "" {
		if *poolMax > 0 && *oplogDir == "" {
			fatalf("-pool-max requires -oplog: a bounded pool spills streams to the oplog's store")
		}
		eng, err := repro.NewEngine(
			repro.WithTau(*tau), repro.WithTauPrime(*tauPrime),
			repro.WithStatistic(statName),
			repro.WithBuilderFactory(factory),
			repro.WithBuilderTag(builderTag),
			repro.WithBootstrap(bootCfg),
			repro.WithSeed(*seed),
			repro.WithWorkers(*workers),
		)
		if err != nil {
			fatalf("%v", err)
		}
		opts := serveOptions{
			addr:        *serve,
			maxInflight: *maxInflight,
			maxBatch:    *maxBatch,
			idleTTL:     *idleTTL,
			slowPush:    *slowPush,
			oplogDir:    *oplogDir,
			poolMax:     *poolMax,
			debugAddr:   *debugAddr,
			logger:      logger,
		}
		if err := runServe(eng, opts); err != nil {
			fatalf("%v", err)
		}
		return
	}

	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if *streams {
		if *format != "jsonl" {
			fatalf("-streams requires -format jsonl")
		}
		if *batch < 1 {
			fatalf("-batch must be >= 1")
		}
		eng, err := repro.NewEngine(
			repro.WithTau(*tau), repro.WithTauPrime(*tauPrime),
			repro.WithStatistic(statName),
			repro.WithBuilderFactory(factory),
			repro.WithBootstrap(bootCfg),
			repro.WithSeed(*seed),
			repro.WithWorkers(*workers),
		)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintln(out, "stream,t,score,ci_lo,ci_up,kappa,alarm")
		if err := readJSONLStreams(in, eng, *batch, func(id string, p *repro.Point) {
			fmt.Fprintf(out, "%s,%d,%g,%g,%g,%s,%t\n",
				id, p.T, p.Score, p.Interval.Lo, p.Interval.Up, kappaString(p.Kappa), p.Alarm)
		}); err != nil {
			// Rows emitted before the failure (including the failing
			// batch's healthy streams) must reach stdout: os.Exit skips the
			// deferred Flush.
			out.Flush()
			for _, line := range strings.Split(err.Error(), "\n") {
				fmt.Fprintf(os.Stderr, "bagcpd: %s\n", line)
			}
			os.Exit(2)
		}
		return
	}

	det, err := repro.NewDetector(repro.Config{
		Tau:       *tau,
		TauPrime:  *tauPrime,
		Statistic: statName,
		Builder:   factory(*seed),
		Bootstrap: bootCfg,
		Seed:      *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Fprintln(out, "t,score,ci_lo,ci_up,kappa,alarm")
	emit := func(p *repro.Point) {
		if p == nil {
			return
		}
		fmt.Fprintf(out, "%d,%g,%g,%g,%s,%t\n",
			p.T, p.Score, p.Interval.Lo, p.Interval.Up, kappaString(p.Kappa), p.Alarm)
	}

	var pushErr error
	switch *format {
	case "jsonl":
		pushErr = readJSONL(in, det, emit)
	case "csv":
		pushErr = readCSV(in, det, emit)
	default:
		fatalf("unknown -format %q (want jsonl or csv)", *format)
	}
	if pushErr != nil {
		out.Flush() // rows before the failing bag must survive os.Exit
		fatalf("%v", pushErr)
	}
}

// statisticFromFlag validates the -score flag value against the
// statistic registry, so the set of accepted names (and the error
// message listing them) tracks registered statistics instead of a
// hardcoded kl|lr pair.
func statisticFromFlag(name string) (string, error) {
	if _, ok := repro.LookupStatistic(name); !ok {
		return "", fmt.Errorf("unknown -score %q (want one of: %s)", name, strings.Join(repro.StatisticNames(), ", "))
	}
	return name, nil
}

// newLogger builds the process logger from the -log-level/-log-format
// flags. Log records go to stderr, keeping stdout exclusively for the
// CSV result rows in batch mode.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func kappaString(kappa float64) string {
	if math.IsNaN(kappa) {
		return "NaN"
	}
	return strconv.FormatFloat(kappa, 'g', -1, 64)
}

// streamsError is the failure report of a -streams run. The engine's
// batch push keeps errors per-stream — when one bag of a stream fails,
// that stream's later bags in the batch are skipped while every other
// stream proceeds — and before this type existed the CLI silently
// discarded all of that: the skipped bags produced no output, no count,
// and the run died with only the first error, never naming how much of
// which stream was dropped. streamsError carries the failing stream and
// the per-stream skip census so main can put both on stderr before
// exiting non-zero.
type streamsError struct {
	// Stream is the id of the stream whose bag failed first (batch order).
	Stream string
	// Err is that first per-bag error.
	Err error
	// Skipped counts, per stream, the bags of the failing batch that
	// produced no output: the failing bag itself plus the stream's later
	// bags the engine skipped.
	Skipped map[string]int
}

func (e *streamsError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream %q: %v", e.Stream, e.Err)
	ids := make([]string, 0, len(e.Skipped))
	for id := range e.Skipped {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "\nstream %q: %d bag(s) skipped without output", id, e.Skipped[id])
	}
	return b.String()
}

func (e *streamsError) Unwrap() error { return e.Err }

// readJSONLStreams reads multiplexed jsonl ({"stream": id, "points":
// [...]}) and feeds the engine in batches (the engine numbers each
// stream's bags in line order). emit sees one call per inspection point,
// in input order within the batch. A per-bag failure aborts the run
// with a *streamsError naming the failing stream and counting every
// skipped bag per stream; the other streams' results from the failing
// batch are still emitted first.
func readJSONLStreams(r io.Reader, eng *repro.Engine, batchSize int, emit func(string, *repro.Point)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	buf := make([]repro.StreamBag, 0, batchSize)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		results, err := eng.PushBatch(buf)
		for _, res := range results {
			if res.Err == nil && res.Point != nil {
				emit(res.StreamID, res.Point)
			}
		}
		buf = buf[:0]
		if err != nil {
			serr := &streamsError{Err: err, Skipped: make(map[string]int)}
			for _, res := range results {
				if res.Err == nil {
					continue
				}
				if serr.Stream == "" {
					serr.Stream = res.StreamID
				}
				serr.Skipped[res.StreamID]++
			}
			return serr
		}
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec struct {
			Stream string      `json:"stream"`
			Points [][]float64 `json:"points"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if rec.Stream == "" {
			return fmt.Errorf("line %d: missing stream id", lineNo)
		}
		buf = append(buf, repro.StreamBag{StreamID: rec.Stream, Bag: repro.NewBag(0, rec.Points)})
		if len(buf) >= batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return sc.Err()
}

func readJSONL(r io.Reader, det *repro.Detector, emit func(*repro.Point)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	t := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var points [][]float64
		if err := json.Unmarshal([]byte(line), &points); err != nil {
			return fmt.Errorf("line %d: %w", t+1, err)
		}
		p, err := det.Push(repro.NewBag(t, points))
		if err != nil {
			return fmt.Errorf("bag %d: %w", t, err)
		}
		emit(p)
		t++
	}
	return sc.Err()
}

func readCSV(r io.Reader, det *repro.Detector, emit func(*repro.Point)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	curT := -1
	var cur [][]float64
	flush := func() error {
		if curT < 0 {
			return nil
		}
		p, err := det.Push(repro.NewBag(curT, cur))
		if err != nil {
			return fmt.Errorf("bag %d: %w", curT, err)
		}
		emit(p)
		cur = nil
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 {
			return fmt.Errorf("line %d: need t,v1[,v2...]", lineNo)
		}
		t, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return fmt.Errorf("line %d: bad time %q", lineNo, fields[0])
		}
		vec := make([]float64, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf("line %d: bad value %q", lineNo, f)
			}
			vec[i] = v
		}
		if t != curT {
			if t < curT {
				return fmt.Errorf("line %d: time went backwards (%d after %d)", lineNo, t, curT)
			}
			if err := flush(); err != nil {
				return err
			}
			curT = t
		}
		cur = append(cur, vec)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

// serveOptions gathers the serve-mode flags runServe needs.
type serveOptions struct {
	addr        string
	maxInflight int
	maxBatch    int
	idleTTL     time.Duration
	slowPush    time.Duration
	oplogDir    string
	poolMax     int
	debugAddr   string
	logger      *slog.Logger
}

// runServe runs the engine as an HTTP service until SIGINT/SIGTERM,
// then drains: the listener stops, in-flight requests finish, the oplog
// (if any) collapses into a final checkpoint, the engine shuts down and
// the eviction janitor halts. The bound
// address is announced in a structured "serving" log record (addr=...)
// so callers using port 0 — and the integration tests — can find the
// service.
func runServe(eng *repro.Engine, o serveOptions) error {
	srv, err := repro.NewServer(repro.ServerConfig{
		Engine:       eng,
		MaxInFlight:  o.maxInflight,
		MaxBatchBags: o.maxBatch,
		IdleTTL:      o.idleTTL,
		SlowPush:     o.slowPush,
		OplogDir:     o.oplogDir,
		MaxResident:  o.poolMax,
		Logger:       o.logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	stopDebug, err := startDebug(o.debugAddr, o.logger)
	if err != nil {
		return err
	}
	defer stopDebug()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	o.logger.Info("serving", "addr", "http://"+ln.Addr().String())

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		eng.Shutdown()
		return err
	case sig := <-stop:
		o.logger.Info("draining", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(ctx)
		// Collapse the oplog into a final checkpoint AFTER the listener
		// drained (no pushes can be in flight) and BEFORE the engine shuts
		// down: the next start on the same directory restores the envelope
		// and its spill store instead of replaying the session's records.
		// Without -oplog this is a no-op.
		if cerr := srv.Checkpoint(); cerr != nil {
			o.logger.Error("drain checkpoint failed", "error", cerr)
			if err == nil {
				err = cerr
			}
		}
		eng.Shutdown()
		return err
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bagcpd: "+format+"\n", args...)
	os.Exit(2)
}
