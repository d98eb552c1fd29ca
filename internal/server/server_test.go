package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/signature"
)

// testClock is a manually advanced clock for eviction tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Template: core.Config{
			Tau: 3, TauPrime: 3,
			Bootstrap: bootstrap.Config{Replicates: 150},
		},
		Factory: signature.HistogramFactory(-6, 9, 24),
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Engine: testEngine(t)}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// pushBody renders NDJSON push rows for the given streams at one step.
func pushBody(step int, ids ...string) string {
	var b strings.Builder
	for _, id := range ids {
		bagJSON, _ := json.Marshal(streamBag(id, step).Points)
		fmt.Fprintf(&b, "{\"stream\":%q,\"bag\":%s}\n", id, bagJSON)
	}
	return b.String()
}

// streamBag generates the step-th deterministic bag of a stream.
func streamBag(id string, step int) bag.Bag {
	rng := randx.New(randx.SplitSeedString(500, id) + int64(step))
	vals := make([]float64, 50)
	mu := 0.0
	if step >= 8 {
		mu = 3
	}
	for i := range vals {
		vals[i] = rng.Normal(mu, 1)
	}
	return bag.FromScalars(step, vals)
}

func doPush(t *testing.T, ts *httptest.Server, body string) []resultRow {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/push", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("push status %d: %s", resp.StatusCode, msg)
	}
	var rows []resultRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row resultRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad response row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestPushNDJSON: rows stream back parallel to the input, pending while
// the window fills, scored afterwards, and every scored row is
// bit-identical to a standalone detector for that stream.
func TestPushNDJSON(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	ids := []string{"a", "b"}

	ref := make(map[string][]*core.Point)
	for _, id := range ids {
		det, err := core.New(srv.eng.StreamConfig(id))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			p, err := det.Push(streamBag(id, step))
			if err != nil {
				t.Fatal(err)
			}
			ref[id] = append(ref[id], p)
		}
	}

	for step := 0; step < 10; step++ {
		rows := doPush(t, ts, pushBody(step, ids...))
		if len(rows) != len(ids) {
			t.Fatalf("step %d: %d rows, want %d", step, len(rows), len(ids))
		}
		for i, id := range ids {
			row := rows[i]
			if row.Stream != id || row.BagT != step {
				t.Fatalf("step %d: row %+v, want stream %s bag_t %d", step, row, id, step)
			}
			want := ref[id][step]
			if want == nil {
				if !row.Pending || row.Score != nil {
					t.Fatalf("step %d stream %s: expected pending row, got %+v", step, id, row)
				}
				continue
			}
			if row.Score == nil || *row.Score != want.Score ||
				*row.Lo != want.Interval.Lo || *row.Up != want.Interval.Up ||
				*row.T != want.T || row.Alarm != want.Alarm {
				t.Fatalf("step %d stream %s: row %+v != reference %+v", step, id, row, want)
			}
		}
	}
}

// TestSnapshotRestoreHTTP is the rebalancing flow over real HTTP:
// push half the data into server A, GET its snapshot, POST it into a
// fresh server B, push the remaining data into B — B's scored rows must
// be byte-identical to an uninterrupted reference server's.
func TestSnapshotRestoreHTTP(t *testing.T) {
	ids := []string{"u-0", "u-1", "u-2"}
	const steps, cut = 14, 7

	// Uninterrupted reference.
	_, refTS := newTestServer(t, nil)
	var want [][]resultRow
	for step := 0; step < steps; step++ {
		rows := doPush(t, refTS, pushBody(step, ids...))
		if step >= cut {
			want = append(want, rows)
		}
	}

	_, tsA := newTestServer(t, nil)
	for step := 0; step < cut; step++ {
		doPush(t, tsA, pushBody(step, ids...))
	}
	resp, err := http.Get(tsA.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	envelope, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, envelope)
	}

	_, tsB := newTestServer(t, nil)
	resp, err = http.Post(tsB.URL+"/v1/restore", "application/json", strings.NewReader(string(envelope)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d: %s", resp.StatusCode, msg)
	}

	for step := cut; step < steps; step++ {
		got := doPush(t, tsB, pushBody(step, ids...))
		wantRows := want[step-cut]
		if len(got) != len(wantRows) {
			t.Fatalf("step %d: %d rows, want %d", step, len(got), len(wantRows))
		}
		for i := range got {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(wantRows[i])
			if string(g) != string(w) {
				t.Fatalf("step %d row %d after restore:\n got %s\nwant %s", step, i, g, w)
			}
		}
	}
}

// TestRestoreMismatchedConfig: an envelope from a differently-configured
// engine is refused with 409 and the server stays usable.
func TestRestoreMismatchedConfig(t *testing.T) {
	_, tsA := newTestServer(t, nil)
	doPush(t, tsA, pushBody(0, "x"))
	resp, err := http.Get(tsA.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	envelope, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	otherEng, err := core.NewEngine(core.EngineConfig{
		Template: core.Config{Tau: 4, TauPrime: 4, Bootstrap: bootstrap.Config{Replicates: 150}},
		Factory:  signature.HistogramFactory(-6, 9, 24),
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := New(Config{Engine: otherEng})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	// Give server B live state of its own: a refused restore must leave
	// it exactly as it was, not wipe it.
	doPush(t, tsB, pushBody(0, "live"))
	doPush(t, tsB, pushBody(1, "live"))

	resp, err = http.Post(tsB.URL+"/v1/restore", "application/json", strings.NewReader(string(envelope)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("restore status %d, want 409", resp.StatusCode)
	}
	// The pre-conflict stream survives with its state intact: it is
	// still listed, and the next push continues its bag clock instead of
	// restarting at 0.
	st, ok := otherEng.Get("live")
	if !ok {
		t.Fatal("stream 'live' was wiped by the refused restore")
	}
	if got := st.Seq(); got != 2 {
		t.Fatalf("stream 'live' seq after refused restore = %d, want 2", got)
	}
	rows := doPushStatus(t, tsB, pushBody(2, "live"), http.StatusOK)
	if len(rows) != 1 || rows[0].BagT != 2 {
		t.Fatalf("post-conflict push rows = %+v, want one row with bag_t 2", rows)
	}
	// And the server still opens fresh streams.
	rows = doPushStatus(t, tsB, pushBody(0, "fresh"), http.StatusOK)
	if len(rows) != 1 {
		t.Fatalf("post-conflict push rows = %d", len(rows))
	}
}

func doPushStatus(t *testing.T, ts *httptest.Server, body string, wantStatus int) []resultRow {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/push", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("push status %d, want %d: %s", resp.StatusCode, wantStatus, raw)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	var rows []resultRow
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var row resultRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestBackPressure429: with MaxInFlight 1, a push stalled mid-request
// makes the next one bounce with 429 and a Retry-After header.
func TestBackPressure429(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		// This request holds the single in-flight slot for as long as its
		// body is unfinished.
		resp, err := http.Post(ts.URL+"/v1/push", "application/x-ndjson", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	// First line gets the handler past the semaphore and into body parsing.
	if _, err := pw.Write([]byte(pushBody(0, "slow"))); err != nil {
		t.Fatal(err)
	}

	// The stalled request may take a moment to reach the semaphore.
	var status int
	for i := 0; i < 100; i++ {
		resp, err := http.Post(ts.URL+"/v1/push", "application/x-ndjson", strings.NewReader(pushBody(0, "other")))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		status = resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if status == http.StatusTooManyRequests {
			if retryAfter == "" {
				t.Fatal("429 without Retry-After")
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("never saw 429, last status %d", status)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The slot frees up: pushes succeed again.
	doPushStatus(t, ts, pushBody(1, "other"), http.StatusOK)
}

// TestIdleEviction: idle streams are closed after the TTL (detector
// recycled, tick clock forgotten), active streams survive, and the
// eviction counter moves.
func TestIdleEviction(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	srv, ts := newTestServer(t, func(c *Config) {
		c.Now = clock.Now
		// IdleTTL deliberately NOT set: the janitor stays off and the test
		// drives EvictIdle with its synthetic clock.
	})

	doPush(t, ts, pushBody(0, "idle", "busy"))
	clock.Advance(30 * time.Second)
	doPush(t, ts, pushBody(1, "busy"))

	evicted := srv.EvictIdle(20 * time.Second)
	if len(evicted) != 1 || evicted[0] != "idle" {
		t.Fatalf("evicted %v, want [idle]", evicted)
	}
	if ids := srv.eng.StreamIDs(); len(ids) != 1 || ids[0] != "busy" {
		t.Fatalf("open streams %v, want [busy]", ids)
	}
	if stats := srv.eng.Stats(); stats.PooledFree != 1 {
		t.Fatalf("pool free = %d, want 1 (evicted detector recycled)", stats.PooledFree)
	}

	// The evicted stream restarts from scratch: bag_t goes back to 0.
	rows := doPush(t, ts, pushBody(0, "idle"))
	if rows[0].BagT != 0 {
		t.Fatalf("restarted stream bag_t = %d, want 0", rows[0].BagT)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "bagcpd_evictions_total 1") {
		t.Fatalf("metrics missing eviction count:\n%s", body)
	}
}

// TestStreamsAndClose: the lifecycle endpoints list and close streams.
func TestStreamsAndClose(t *testing.T) {
	_, ts := newTestServer(t, nil)
	doPush(t, ts, pushBody(0, "a", "b"))
	doPush(t, ts, pushBody(1, "a"))

	resp, err := http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Streams []streamInfo `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Streams) != 2 {
		t.Fatalf("streams = %+v", listing.Streams)
	}
	if listing.Streams[0].ID != "a" || listing.Streams[0].Pushed != 2 {
		t.Fatalf("stream a = %+v, want 2 pushed", listing.Streams[0])
	}

	resp, err = http.Post(ts.URL+"/v1/streams/a/close", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/streams/a/close", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second close status %d, want 404", resp.StatusCode)
	}
}

// TestPushValidation: malformed batches are refused whole with 400.
func TestPushValidation(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatchBags = 4 })
	cases := map[string]string{
		"bad json":    "not json\n",
		"missing id":  `{"bag":[[1],[2]]}` + "\n",
		"empty bag":   `{"stream":"s","bag":[]}` + "\n",
		"ragged bag":  `{"stream":"s","bag":[[1],[2,3]]}` + "\n",
		"empty batch": "",
		"too many":    pushBody(0, "a", "b", "c", "d", "e"),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			doPushStatus(t, ts, body, http.StatusBadRequest)
		})
	}
	// And nothing was half-applied: no streams opened.
	if n := len(testEngineIDs(t, ts)); n != 0 {
		t.Fatalf("%d streams opened by refused batches", n)
	}
}

// TestNewRefusesPoolWithoutOplog: the spill store comes with the oplog,
// so a bounded pool without one has nowhere to page streams out to.
func TestNewRefusesPoolWithoutOplog(t *testing.T) {
	_, err := New(Config{Engine: testEngine(t), MaxResident: 1})
	if err == nil || !strings.Contains(err.Error(), "MaxResident requires OplogDir") {
		t.Fatalf("New(MaxResident without OplogDir) = %v, want a MaxResident/OplogDir error", err)
	}
}

func testEngineIDs(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Streams []streamInfo `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(listing.Streams))
	for i, s := range listing.Streams {
		ids[i] = s.ID
	}
	return ids
}

// TestPushBodyTooLarge: the byte cap refuses oversized bodies with 413
// before buffering them (the row cap alone bounds rows, not memory).
func TestPushBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatchBytes = 512 })
	body := pushBody(0, "big") // one 50-point bag ≈ 1 KiB of JSON
	doPushStatus(t, ts, body, http.StatusRequestEntityTooLarge)
	// Within the cap, the same stream works.
	_, ts2 := newTestServer(t, nil)
	doPushStatus(t, ts2, body, http.StatusOK)
}

// TestPushErrorKeepsClockAligned: a bag that parses but fails inside the
// detector must not advance the stream's bag clock — the next good bag
// takes the index the failed one would have had.
func TestPushErrorKeepsClockAligned(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for step := 0; step < 3; step++ {
		doPush(t, ts, pushBody(step, "s"))
	}
	// 2-D bag into a 1-D histogram detector: valid wire row, Push error.
	rows := doPush(t, ts, `{"stream":"s","bag":[[1,2],[3,4]]}`+"\n")
	if rows[0].Error == "" {
		t.Fatal("expected a per-row detector error")
	}
	if infos := listStreams(t, ts); infos[0].Pushed != 3 {
		t.Fatalf("pushed = %d after failed bag, want 3", infos[0].Pushed)
	}
	rows = doPush(t, ts, pushBody(3, "s"))
	if rows[0].BagT != 3 {
		t.Fatalf("bag_t after failed bag = %d, want 3", rows[0].BagT)
	}
	// And the engine's count agrees.
	st, ok := srv.eng.Get("s")
	if !ok || st.Seq() != 4 {
		t.Fatalf("engine seq = %d, want 4", st.Seq())
	}

	// A brand-new stream whose first bag fails stays at index 0: the
	// stream opens but its count stays 0.
	rows = doPush(t, ts, `{"stream":"fresh","bag":[[1,2],[3,4]]}`+"\n")
	if rows[0].Error == "" {
		t.Fatal("expected error")
	}
	rows = doPush(t, ts, pushBody(0, "fresh"))
	if rows[0].BagT != 0 {
		t.Fatalf("fresh stream bag_t = %d, want 0", rows[0].BagT)
	}
}

func listStreams(t *testing.T, ts *httptest.Server) []streamInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Streams []streamInfo `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	return listing.Streams
}

// TestMetricsExposition: the scrape carries every metric family.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for step := 0; step < 7; step++ {
		doPush(t, ts, pushBody(step, "m"))
	}
	// One extract/adopt round trip so the migration counters move.
	adoptEnvelope(t, ts, extractStreams(t, ts, "m"))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"bagcpd_engine_info{statistic=\"kl\"} 1",
		"bagcpd_streams_open 1",
		"bagcpd_push_batches_total 7",
		"bagcpd_push_bags_total 7",
		"bagcpd_push_points_total 2", // window 6 → points at steps 5 and 6
		"bagcpd_push_batch_seconds{quantile=\"0.5\"}",
		"bagcpd_push_batch_seconds_count 7",
		"bagcpd_detector_pool_free 0",
		"bagcpd_inflight_batches 0",
		"bagcpd_streams_extracted_total 1",
		"bagcpd_streams_adopted_total 1",
		// EMD cost-amortization totals, per statistic, from the engine's
		// stage observer.
		"# TYPE bagcpd_push_solver_ground_evals_total counter",
		"# TYPE bagcpd_push_solver_cache_hits_total counter",
		"# TYPE bagcpd_push_solver_cache_misses_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// extractStreams POSTs /v1/streams/extract and returns the raw envelope.
func extractStreams(t *testing.T, ts *httptest.Server, ids ...string) []byte {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"streams": ids})
	resp, err := http.Post(ts.URL+"/v1/streams/extract", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract status %d: %s", resp.StatusCode, blob)
	}
	return blob
}

// adoptEnvelope POSTs an envelope to /v1/streams/adopt and returns the
// response status.
func adoptEnvelope(t *testing.T, ts *httptest.Server, envelope []byte) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/streams/adopt", "application/json", strings.NewReader(string(envelope)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestExtractAdoptHTTP: the migration hand-off over the wire — streams
// extracted from a donor keep scoring bit-identically after adoption on
// a receiver that already serves its own traffic.
func TestExtractAdoptHTTP(t *testing.T) {
	moving := []string{"x", "y"}
	staying := "z"
	const steps, cut = 14, 7

	// Uninterrupted reference for every stream involved.
	_, refTS := newTestServer(t, nil)
	want := make(map[string][]resultRow)
	for step := 0; step < steps; step++ {
		for _, id := range append(append([]string{}, moving...), staying, "resident") {
			rows := doPush(t, refTS, pushBody(step, id))
			want[id] = append(want[id], rows[0])
		}
	}

	_, donor := newTestServer(t, nil)
	_, receiver := newTestServer(t, nil)
	for step := 0; step < cut; step++ {
		doPush(t, donor, pushBody(step, append([]string{staying}, moving...)...))
		doPush(t, receiver, pushBody(step, "resident"))
	}

	envelope := extractStreams(t, donor, moving...)
	var snap core.EngineSnapshot
	if err := json.Unmarshal(envelope, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Partial || len(snap.Streams) != len(moving) {
		t.Fatalf("extract envelope: partial=%t streams=%d, want partial with %d streams", snap.Partial, len(snap.Streams), len(moving))
	}

	// The donor no longer knows the streams: listed gone, re-extract 404.
	for _, info := range listStreams(t, donor) {
		if info.ID == moving[0] || info.ID == moving[1] {
			t.Fatalf("donor still lists extracted stream %s", info.ID)
		}
	}
	body, _ := json.Marshal(map[string]any{"streams": moving})
	resp, err := http.Post(donor.URL+"/v1/streams/extract", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("re-extract status %d, want 404", resp.StatusCode)
	}

	if got := adoptEnvelope(t, receiver, envelope); got != http.StatusOK {
		t.Fatalf("adopt status %d", got)
	}
	// Duplicate delivery of the same envelope must refuse loudly rather
	// than rewind the now-live streams.
	if got := adoptEnvelope(t, receiver, envelope); got != http.StatusConflict {
		t.Fatalf("duplicate adopt status %d, want 409", got)
	}
	// A differently-configured engine refuses the envelope outright.
	_, alien := newTestServer(t, func(c *Config) {
		eng, err := core.NewEngine(core.EngineConfig{
			Template: core.Config{Tau: 4, TauPrime: 4, Bootstrap: bootstrap.Config{Replicates: 150}},
			Factory:  signature.HistogramFactory(-6, 9, 24),
			Seed:     42,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Engine = eng
	})
	if got := adoptEnvelope(t, alien, envelope); got != http.StatusConflict {
		t.Fatalf("mismatched-config adopt status %d, want 409", got)
	}

	// Traffic continues on both sides; every row matches the reference.
	for step := cut; step < steps; step++ {
		for _, id := range moving {
			rows := doPush(t, receiver, pushBody(step, id))
			g, _ := json.Marshal(rows[0])
			w, _ := json.Marshal(want[id][step])
			if string(g) != string(w) {
				t.Fatalf("step %d stream %s after migration:\n got %s\nwant %s", step, id, g, w)
			}
		}
		rows := doPush(t, receiver, pushBody(step, "resident"))
		g, _ := json.Marshal(rows[0])
		w, _ := json.Marshal(want["resident"][step])
		if string(g) != string(w) {
			t.Fatalf("step %d resident stream:\n got %s\nwant %s", step, g, w)
		}
		rows = doPush(t, donor, pushBody(step, staying))
		g, _ = json.Marshal(rows[0])
		w, _ = json.Marshal(want[staying][step])
		if string(g) != string(w) {
			t.Fatalf("step %d staying stream:\n got %s\nwant %s", step, g, w)
		}
	}
}
