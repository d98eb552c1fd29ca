package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsConformance is the strict exposition-format check on a
// live server's /metrics: every family has HELP/TYPE before its first
// sample, no duplicate series, histogram buckets are monotone and the
// +Inf bucket equals _count. The router test runs the same checker on
// its aggregated exposition.
func TestMetricsConformance(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for step := 0; step < 8; step++ {
		doPush(t, ts, pushBody(step, "s1", "s2"))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if errs := obs.Lint(bytes.NewReader(body)); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("server /metrics fails exposition conformance:\n%s", body)
	}
	// The stage histograms must be present and labeled by statistic.
	if !strings.Contains(string(body), `bagcpd_push_stage_seconds_count{stage="emd",statistic="kl"}`) {
		t.Errorf("missing stage histogram series in:\n%s", body)
	}
}

// TestPushTraceEcho: a push carrying the trace header gets the trace
// echoed in every NDJSON result row and the response header; a push
// without it carries no trace field (preserving the pre-trace wire
// bytes for direct clients).
func TestPushTraceEcho(t *testing.T) {
	_, ts := newTestServer(t, nil)

	req, err := http.NewRequest("POST", ts.URL+"/v1/push", strings.NewReader(pushBody(0, "tr")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, "deadbeef01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "deadbeef01" {
		t.Errorf("response trace header = %q, want deadbeef01", got)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if !strings.Contains(sc.Text(), `"trace":"deadbeef01"`) {
			t.Errorf("row missing trace: %s", sc.Text())
		}
	}

	resp2, err := http.Post(ts.URL+"/v1/push", "application/x-ndjson", strings.NewReader(pushBody(1, "tr")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(body), `"trace"`) {
		t.Errorf("traceless push grew a trace field: %s", body)
	}
}

// TestSlowPushLogged: batches at or above the SlowPush threshold emit a
// structured warn record carrying the trace ID; with a frozen clock
// (every batch measures 0s) nothing is logged.
func TestSlowPushLogged(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	clock := &testClock{t: time.Unix(1000, 0)}
	_, frozen := newTestServer(t, func(c *Config) {
		c.Logger = logger
		c.SlowPush = time.Nanosecond
		c.Now = clock.Now
	})
	doPush(t, frozen, pushBody(0, "sl"))
	if strings.Contains(buf.String(), "slow push batch") {
		t.Fatalf("0-duration batch logged as slow: %s", buf.String())
	}

	buf.Reset()
	_, ts := newTestServer(t, func(c *Config) {
		c.Logger = logger
		c.SlowPush = time.Nanosecond // real clock: every batch trips it
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/push", strings.NewReader(pushBody(0, "sl")))
	req.Header.Set(TraceHeader, "feedface02")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out := buf.String()
	if !strings.Contains(out, `"msg":"slow push batch"`) {
		t.Fatalf("no slow-batch record in: %s", out)
	}
	if !strings.Contains(out, `"trace":"feedface02"`) {
		t.Fatalf("slow-batch record missing trace in: %s", out)
	}
}

// TestStreamStatsEndpoint: GET /v1/streams/{id}/stats reports the bag
// clock, window occupancy, last inspection and per-stage cumulative
// costs for a live stream, and 404s for unknown ones.
func TestStreamStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for step := 0; step < 8; step++ {
		doPush(t, ts, pushBody(step, "st"))
	}
	resp, err := http.Get(ts.URL + "/v1/streams/st/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("stats status %d: %s", resp.StatusCode, msg)
	}
	var row streamStatsRow
	if err := json.NewDecoder(resp.Body).Decode(&row); err != nil {
		t.Fatal(err)
	}
	if row.Stream != "st" || row.Bags != 8 {
		t.Errorf("stats stream/bags = %q/%d, want st/8", row.Stream, row.Bags)
	}
	if row.WindowSize != 6 || row.WindowFill != 6 {
		t.Errorf("window = %d/%d, want 6/6", row.WindowFill, row.WindowSize)
	}
	if row.Last == nil {
		t.Fatal("stats missing last inspection")
	}
	// 8 bags with τ=τ′=3: last inspection at t = 8 − 3 = 5.
	if row.Last.T != 5 {
		t.Errorf("last.T = %d, want 5", row.Last.T)
	}
	// The engine is instrumented by the server, so stage totals are live.
	var emdSeen bool
	for _, sg := range row.Stages {
		if sg.Stage == "emd" {
			emdSeen = true
			if sg.Count != 8 {
				t.Errorf("emd stage count = %d, want 8", sg.Count)
			}
		}
	}
	if !emdSeen {
		t.Error("stats missing emd stage total")
	}

	resp404, err := http.Get(ts.URL + "/v1/streams/nope/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stream stats status = %d, want 404", resp404.StatusCode)
	}
}
