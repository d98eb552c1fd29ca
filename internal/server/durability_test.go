package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/signature"
)

// newestSegment returns the highest-indexed oplog segment in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "oplog-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no oplog segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// scoredEqual fails unless two response rows agree on everything a
// client consumes.
func scoredEqual(t *testing.T, tag string, got, want resultRow) {
	t.Helper()
	if got.Stream != want.Stream || got.BagT != want.BagT || got.Pending != want.Pending ||
		got.Error != want.Error || got.Alarm != want.Alarm {
		t.Fatalf("%s: row %+v != reference %+v", tag, got, want)
	}
	eqF := func(a, b *float64) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || *a == *b
	}
	eqI := func(a, b *int) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || *a == *b
	}
	if !eqI(got.T, want.T) || !eqF(got.Score, want.Score) || !eqF(got.Lo, want.Lo) ||
		!eqF(got.Up, want.Up) || !eqF(got.Kappa, want.Kappa) {
		t.Fatalf("%s: scored row %+v != reference %+v", tag, got, want)
	}
}

// TestOplogRecoverTornTail is the in-process crash drill: server A
// acknowledges pushes into an oplog, is abandoned without a checkpoint,
// the newest segment gets a torn tail appended (the crash artifact),
// and server B recovering the same directory — with a fresh engine —
// must continue every stream bit-identically to a server that never
// stopped. A checkpoint mid-way exercises the envelope + suffix path.
func TestOplogRecoverTornTail(t *testing.T) {
	ids := []string{"d-0", "d-1", "d-2"}
	const steps, ckptAt, cut = 14, 4, 9

	_, refTS := newTestServer(t, nil)
	var want [][]resultRow
	for step := 0; step < steps; step++ {
		want = append(want, doPush(t, refTS, pushBody(step, ids...)))
	}

	dir := t.TempDir()
	srvA, tsA := newTestServer(t, func(c *Config) { c.OplogDir = dir })
	for step := 0; step < cut; step++ {
		rows := doPush(t, tsA, pushBody(step, ids...))
		for i := range rows {
			scoredEqual(t, fmt.Sprintf("A step %d row %d", step, i), rows[i], want[step][i])
		}
		if step == ckptAt {
			if err := srvA.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	// "Crash": drop A without a drain checkpoint. Close the log so B can
	// own the files; every acknowledged row is already fsynced, so this
	// adds no durability a real SIGKILL wouldn't have had.
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(newestSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"push","stream":"d-0","bag_t":9,"bag":[[0.1`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srvB, tsB := newTestServer(t, func(c *Config) { c.OplogDir = dir })
	if n := srvB.eng.Len(); n != len(ids) {
		t.Fatalf("recovered %d streams, want %d", n, len(ids))
	}
	// The torn row was never acknowledged: d-0's clock must sit at cut,
	// so the client's retry of step `cut` gets the same label again.
	rows := doPush(t, tsB, pushBody(cut, ids...))
	for i := range rows {
		scoredEqual(t, fmt.Sprintf("B step %d row %d", cut, i), rows[i], want[cut][i])
	}
	for step := cut + 1; step < steps; step++ {
		rows := doPush(t, tsB, pushBody(step, ids...))
		for i := range rows {
			scoredEqual(t, fmt.Sprintf("B step %d row %d", step, i), rows[i], want[step][i])
		}
	}
}

// postRows pushes body and decodes the result rows; unlike doPush it is
// safe to call from any goroutine.
func postRows(url, body string) ([]resultRow, error) {
	resp, err := http.Post(url+"/v1/push", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("push status %d", resp.StatusCode)
	}
	var rows []resultRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row resultRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// TestConcurrentSameStreamOplog: concurrent multi-row batches on ONE
// stream with the oplog on. Every row must carry the index the engine
// applied it at — the applied bag_t values are exactly 0…n−1, each
// batch's run is contiguous, and every scored row has t = bag_t−(τ′−1) —
// /v1/streams must count all n, and a fresh server must replay the log
// without finding a hole. Labels handed out before the apply (instead
// of at it) let a later-labelled batch apply first, which breaks all
// three.
func TestConcurrentSameStreamOplog(t *testing.T) {
	const goroutines, batches, rowsPer, trials = 6, 8, 2, 8
	const n = goroutines * batches * rowsPer
	const tauPrime = 3 // testEngine's τ′
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		srvA, tsA := newTestServer(t, func(c *Config) { c.OplogDir = dir })
		var (
			mu   sync.Mutex
			runs [][]resultRow
			wg   sync.WaitGroup
			errs = make(chan error, goroutines)
		)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					var body strings.Builder
					for r := 0; r < rowsPer; r++ {
						body.WriteString(pushBody((g*batches+b)*rowsPer+r, "s"))
					}
					rows, err := postRows(tsA.URL, body.String())
					if err != nil {
						errs <- err
						return
					}
					mu.Lock()
					runs = append(runs, rows)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("trial %d: %v", trial, err)
		}
		seen := make([]bool, n)
		for _, rows := range runs {
			for i, row := range rows {
				if row.Error != "" {
					t.Fatalf("trial %d: row error %q", trial, row.Error)
				}
				if row.BagT < 0 || row.BagT >= n || seen[row.BagT] {
					t.Fatalf("trial %d: bag_t %d out of range or repeated", trial, row.BagT)
				}
				seen[row.BagT] = true
				if row.BagT != rows[0].BagT+i {
					t.Fatalf("trial %d: batch bag_t run %d..%d not contiguous", trial, rows[0].BagT, row.BagT)
				}
				if row.T != nil && *row.T != row.BagT-(tauPrime-1) {
					t.Fatalf("trial %d: scored t=%d at bag_t=%d, want t = bag_t-%d", trial, *row.T, row.BagT, tauPrime-1)
				}
			}
		}
		for bt, ok := range seen {
			if !ok {
				t.Fatalf("trial %d: bag_t %d never assigned", trial, bt)
			}
		}
		if infos := listStreams(t, tsA); len(infos) != 1 || infos[0].Pushed != n {
			t.Fatalf("trial %d: /v1/streams = %+v, want pushed=%d", trial, infos, n)
		}
		tsA.Close()
		if err := srvA.Close(); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Engine: testEngine(t), OplogDir: dir}
		srvB, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: restart on the same oplog: %v", trial, err)
		}
		tsB := httptest.NewServer(srvB)
		infos := listStreams(t, tsB)
		tsB.Close()
		srvB.Close()
		if len(infos) != 1 || infos[0].Pushed != n {
			t.Fatalf("trial %d: recovered /v1/streams = %+v, want pushed=%d", trial, infos, n)
		}
	}
}

// poolFactories are the five builder families the spill path must
// round-trip: a spilled-and-faulted stream re-enters scoring through
// its serialized envelope, so any signature state the envelope drops
// would surface here as a score divergence.
var poolFactories = map[string]signature.BuilderFactory{
	"kmeans":   signature.KMeansFactory(4, cluster.Config{}),
	"kmedoids": signature.KMedoidsFactory(4, cluster.Config{}),
	"online":   signature.OnlineFactory(4, 0.1),
	"hist":     signature.HistogramFactory(-6, 9, 24),
	"grid":     signature.GridFactory([]float64{-6}, []float64{9}, 24),
}

func factoryEngine(t testing.TB, f signature.BuilderFactory) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Template: core.Config{
			Tau: 3, TauPrime: 3,
			Bootstrap: bootstrap.Config{Replicates: 150},
		},
		Factory: f,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSpillPoolBitIdentity: M streams through a pool bounded at P ≪ M
// must score bit-identically to an unbounded server, for every builder
// family, while resident streams never exceed P and the spill/fault-in
// counters prove streams actually paged through disk.
func TestSpillPoolBitIdentity(t *testing.T) {
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("p-%d", i)
	}
	const steps, bound = 11, 3

	for name, factory := range poolFactories {
		t.Run(name, func(t *testing.T) {
			_, refTS := newTestServer(t, func(c *Config) { c.Engine = factoryEngine(t, factory) })
			want := make(map[string][]resultRow)
			for step := 0; step < steps; step++ {
				for _, id := range ids {
					rows := doPush(t, refTS, pushBody(step, id))
					want[id] = append(want[id], rows[0])
				}
			}

			srv, ts := newTestServer(t, func(c *Config) {
				c.Engine = factoryEngine(t, factory)
				c.OplogDir = t.TempDir()
				c.MaxResident = bound
			})
			for step := 0; step < steps; step++ {
				for _, id := range ids {
					rows := doPush(t, ts, pushBody(step, id))
					scoredEqual(t, fmt.Sprintf("%s %s step %d", name, id, step), rows[0], want[id][step])
				}
			}
			if peak := srv.poolPeak.Load(); peak > bound {
				t.Fatalf("resident peak %d exceeded pool bound %d", peak, bound)
			}
			if srv.met.spills.Value() == 0 || srv.met.faultins.Value() == 0 {
				t.Fatalf("pool never paged: spills=%d faultins=%d",
					srv.met.spills.Value(), srv.met.faultins.Value())
			}
			if srv.met.spillErrors.Value() != 0 {
				t.Fatalf("spill errors: %d", srv.met.spillErrors.Value())
			}
		})
	}
}

// TestEvictSpillContinuation is the eviction bugfix headline: an idle
// stream evicted in spill mode is NOT lost — its next push faults the
// envelope back in and scoring continues exactly where it left off.
func TestEvictSpillContinuation(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	const steps, cut = 12, 6
	id := "evicted"

	_, refTS := newTestServer(t, nil)
	var want []resultRow
	for step := 0; step < steps; step++ {
		want = append(want, doPush(t, refTS, pushBody(step, id))[0])
	}

	srv, ts := newTestServer(t, func(c *Config) {
		c.OplogDir = t.TempDir()
		c.Now = clock.Now
	})
	for step := 0; step < cut; step++ {
		rows := doPush(t, ts, pushBody(step, id))
		scoredEqual(t, fmt.Sprintf("pre-evict step %d", step), rows[0], want[step])
	}
	clock.Advance(time.Hour)
	evicted := srv.EvictIdle(30 * time.Minute)
	if len(evicted) != 1 || evicted[0] != id {
		t.Fatalf("EvictIdle = %v, want [%s]", evicted, id)
	}
	if srv.eng.Len() != 0 {
		t.Fatalf("stream still resident after spill eviction")
	}
	if !srv.spill.Has(id) {
		t.Fatal("spill store does not hold the evicted stream")
	}
	for step := cut; step < steps; step++ {
		rows := doPush(t, ts, pushBody(step, id))
		scoredEqual(t, fmt.Sprintf("post-evict step %d", step), rows[0], want[step])
	}
	if srv.met.faultins.Value() != 1 {
		t.Fatalf("faultins = %d, want 1", srv.met.faultins.Value())
	}
	if srv.spill.Has(id) {
		t.Fatal("spill file survived the fault-in")
	}
}

// TestEvictSweepRace: the sweep must not hold the phase lock across the
// whole candidate set, and a stream pushed between the census and its
// batch keeps its state. evictBatch+1 idle streams make two batches;
// the sweepPause hook pushes to the one stream the second batch holds
// (the census orders equal stamps by id) in the lock-free window
// between them.
func TestEvictSweepRace(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	srv, ts := newTestServer(t, func(c *Config) { c.Now = clock.Now })
	ids := make([]string, evictBatch+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("r-%03d", i)
	}
	last := ids[len(ids)-1]
	for step := 0; step < 2; step++ {
		doPush(t, ts, pushBody(step, ids...))
	}
	clock.Advance(time.Hour)

	pauses := 0
	srv.sweepPause = func() {
		pauses++
		// Between batches no locks are held: this push must neither
		// deadlock nor be torn down by the batch that follows it.
		doPush(t, ts, pushBody(2, last))
	}
	evicted := srv.EvictIdle(30 * time.Minute)
	if pauses != 1 {
		t.Fatalf("sweepPause ran %d times, want 1 — sweep was not split into two batches", pauses)
	}
	want := ids[:len(ids)-1]
	if strings.Join(evicted, ",") != strings.Join(want, ",") {
		t.Fatalf("evicted %v, want %v (%s was re-pushed mid-sweep)", evicted, want, last)
	}
	if _, open := srv.eng.Get(last); !open {
		t.Fatalf("re-pushed stream %s was evicted out from under its acknowledgement", last)
	}
}

// TestCloseSpilledStream: a spilled stream is still logically open —
// the close endpoint must drop its on-disk envelope, not 404.
func TestCloseSpilledStream(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	srv, ts := newTestServer(t, func(c *Config) {
		c.OplogDir = t.TempDir()
		c.Now = clock.Now
	})
	doPush(t, ts, pushBody(0, "s-0"))
	clock.Advance(time.Hour)
	if evicted := srv.EvictIdle(time.Minute); len(evicted) != 1 {
		t.Fatalf("evicted %v", evicted)
	}
	resp, err := http.Post(ts.URL+"/v1/streams/s-0/close", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close of spilled stream: status %d", resp.StatusCode)
	}
	if srv.spill.Has("s-0") {
		t.Fatal("spill file survived the close")
	}
	// The next life starts from tick 0.
	rows := doPush(t, ts, pushBody(0, "s-0"))
	if rows[0].BagT != 0 {
		t.Fatalf("new life starts at bag_t %d, want 0", rows[0].BagT)
	}
}

// TestSnapshotCarriesSpilledStreams: spilled streams are still open, so
// a full snapshot must carry them — read from the spill store, without
// faulting them in past the pool bound — and restoring that envelope
// must continue every stream, spilled ones included, bit-identically
// (the restore empties the spill store, so a snapshot without them would
// lose them).
func TestSnapshotCarriesSpilledStreams(t *testing.T) {
	ids := []string{"v-0", "v-1", "v-2", "v-3"}
	const steps, cut, bound = 12, 7, 2

	_, refTS := newTestServer(t, nil)
	want := make(map[string][]resultRow)
	for step := 0; step < steps; step++ {
		for _, id := range ids {
			want[id] = append(want[id], doPush(t, refTS, pushBody(step, id))[0])
		}
	}

	srv, ts := newTestServer(t, func(c *Config) {
		c.OplogDir = t.TempDir()
		c.MaxResident = bound
	})
	// One stream per request, so the pool pages on every push.
	for step := 0; step < cut; step++ {
		for _, id := range ids {
			doPush(t, ts, pushBody(step, id))
		}
	}
	if n := srv.spill.Len(); n != len(ids)-bound {
		t.Fatalf("%d streams spilled, want %d", n, len(ids)-bound)
	}

	resp, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var full core.EngineSnapshot
	err = json.NewDecoder(resp.Body).Decode(&full)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range full.Streams {
		if st.Detector.Count != cut {
			t.Fatalf("stream %s snapshotted at count %d, want %d", st.ID, st.Detector.Count, cut)
		}
	}
	if got := streamIDs(full); strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("full snapshot streams %v, want %v in id order", got, ids)
	}
	if n := srv.eng.Len(); n > bound {
		t.Fatalf("snapshot faulted streams in: %d resident, bound %d", n, bound)
	}

	// Restore the envelope onto the same server, then finish the run.
	blob, _ := json.Marshal(&full)
	resp, err = http.Post(ts.URL+"/v1/restore", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", resp.StatusCode)
	}
	for step := cut; step < steps; step++ {
		for _, id := range ids {
			rows := doPush(t, ts, pushBody(step, id))
			scoredEqual(t, fmt.Sprintf("%s step %d after restore", id, step), rows[0], want[id][step])
		}
	}
}

func streamIDs(snap core.EngineSnapshot) []string {
	ids := make([]string, len(snap.Streams))
	for i := range snap.Streams {
		ids[i] = snap.Streams[i].ID
	}
	return ids
}

// TestRetryAfterDerived: the 429 hint follows the observed batch
// latency tail instead of the old hardcoded 1s.
func TestRetryAfterDerived(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()

	resp, err := http.Post(ts.URL+"/v1/push", "application/x-ndjson", strings.NewReader(pushBody(0, "x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("cold Retry-After = %q, want 1", got)
	}

	srv.met.batchLat.Observe(3.2) // p99 of the window → ceil → 4
	resp, err = http.Post(ts.URL+"/v1/push", "application/x-ndjson", strings.NewReader(pushBody(0, "x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("loaded Retry-After = %q, want 4", got)
	}
}

// brokenWriter fails every write after the response headers, playing a
// client that hung up mid-response.
type brokenWriter struct {
	header http.Header
	code   int
}

func (b *brokenWriter) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}
func (b *brokenWriter) WriteHeader(code int)      { b.code = code }
func (b *brokenWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("connection reset") }

// TestPushResponseWriteErrors: a dead client connection stops the
// response loop at the first failed row and the dropped rows are
// counted — previously every Encode error was silently discarded.
func TestPushResponseWriteErrors(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	// Enough rows that the response overflows the bufio buffer and hits
	// the broken connection mid-loop.
	ids := make([]string, 80)
	for i := range ids {
		ids[i] = fmt.Sprintf("w-%d", i)
	}
	req := httptest.NewRequest("POST", "/v1/push", strings.NewReader(pushBody(0, ids...)))
	srv.ServeHTTP(&brokenWriter{}, req)
	if n := srv.met.respWriteErrors.Value(); n == 0 {
		t.Fatal("dropped response rows were not counted")
	} else if n > uint64(len(ids)) {
		t.Fatalf("counted %d drops for %d rows", n, len(ids))
	}
}

// TestRestoreRefusedKeepsLiveStreams: an envelope whose fingerprint
// matches but which is partial, or whose second stream carries a
// malformed detector state (a truncated log-distance matrix), must be
// refused BEFORE the live streams are torn down. The refusal leaves /v1/streams as it was, the
// next push continues every stream's bag clock bit-identically to a
// server that never saw the request, and so does a crash-recovered
// server on the same oplog directory.
func TestRestoreRefusedKeepsLiveStreams(t *testing.T) {
	ids := []string{"a", "b"}
	const cut, steps = 10, 13
	clock := &testClock{t: time.Unix(1000, 0)}

	_, refTS := newTestServer(t, nil)
	var want [][]resultRow
	for step := 0; step < steps; step++ {
		want = append(want, doPush(t, refTS, pushBody(step, ids...)))
	}

	dir := t.TempDir()
	srvA, tsA := newTestServer(t, func(c *Config) {
		c.OplogDir = dir
		c.Now = clock.Now
	})
	for step := 0; step < cut; step++ {
		doPush(t, tsA, pushBody(step, ids...))
	}
	before := listStreams(t, tsA)

	resp, err := http.Get(tsA.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var env core.EngineSnapshot
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Streams) != 2 {
		t.Fatalf("snapshot carries %d streams, want 2", len(env.Streams))
	}
	partial := env
	partial.Partial = true
	malformed := env
	malformed.Streams = append([]core.StreamSnapshot(nil), env.Streams...)
	logD := env.Streams[1].Detector.LogD
	malformed.Streams[1].Detector.LogD = logD[:len(logD)-1]
	for name, bad := range map[string]*core.EngineSnapshot{"partial": &partial, "truncated log_d": &malformed} {
		blob, _ := json.Marshal(bad)
		resp, err = http.Post(tsA.URL+"/v1/restore", "application/json", strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("restore of a %s envelope: status %d (%s), want 409", name, resp.StatusCode, msg)
		}
		if after := listStreams(t, tsA); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("/v1/streams after the refused %s restore = %+v, want %+v", name, after, before)
		}
	}
	rows := doPush(t, tsA, pushBody(cut, ids...))
	for i := range rows {
		scoredEqual(t, fmt.Sprintf("post-refusal row %d", i), rows[i], want[cut][i])
	}

	// "Crash" without a drain checkpoint; the recovered server must hold
	// the same acknowledged history.
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	_, tsB := newTestServer(t, func(c *Config) { c.OplogDir = dir })
	for step := cut + 1; step < steps; step++ {
		rows := doPush(t, tsB, pushBody(step, ids...))
		for i := range rows {
			scoredEqual(t, fmt.Sprintf("recovered step %d row %d", step, i), rows[i], want[step][i])
		}
	}
}
