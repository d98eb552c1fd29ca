package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestMain doubles as the serve-mode helper process: the integration
// test re-execs this test binary with BAGCPD_SERVE_HELPER=1 and real
// bagcpd flags, turning it into a second bagcpd process without needing
// a separate `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("BAGCPD_SERVE_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// serveArgs is the detector configuration of the integration test, as
// CLI flags for the server processes and mirrored by refEngine for the
// in-process reference.
var serveArgs = []string{
	"-serve", "127.0.0.1:0",
	"-tau", "2", "-tau-prime", "2",
	"-hist-lo", "-8", "-hist-hi", "10", "-hist-bins", "16",
	"-bootstrap", "120",
	"-seed", "7",
}

func refEngine(t *testing.T) *repro.Engine {
	t.Helper()
	eng, err := repro.NewEngine(
		repro.WithTau(2), repro.WithTauPrime(2),
		repro.WithBuilderFactory(repro.HistogramFactory(-8, 10, 16)),
		repro.WithBootstrap(repro.BootstrapConfig{Replicates: 120}),
		repro.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// announcedAddr extracts the addr= value from a structured log line
// carrying the given msg marker ("msg=serving" / "msg=routing"), or ""
// when the line is some other record.
func announcedAddr(line, marker string) string {
	if !strings.Contains(line, marker) {
		return ""
	}
	for _, f := range strings.Fields(line) {
		if rest, ok := strings.CutPrefix(f, "addr="); ok {
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}

// startServeProcess launches a bagcpd -serve helper process (with any
// extra flags appended to serveArgs) and returns its base URL once the
// listener is up.
func startServeProcess(t *testing.T, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(append([]string{}, serveArgs...), extra...)...)
	cmd.Env = append(os.Environ(), "BAGCPD_SERVE_HELPER=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if addr := announcedAddr(sc.Text(), "msg=serving"); addr != "" {
				urlc <- addr
			}
		}
	}()
	select {
	case u := <-urlc:
		return cmd, u
	case <-time.After(20 * time.Second):
		t.Fatal("server process did not announce its address")
		return nil, ""
	}
}

// serveRow mirrors the server's NDJSON response row.
type serveRow struct {
	Stream  string   `json:"stream"`
	BagT    int      `json:"bag_t"`
	Pending bool     `json:"pending"`
	T       *int     `json:"t"`
	Score   *float64 `json:"score"`
	Lo      *float64 `json:"lo"`
	Up      *float64 `json:"up"`
	Kappa   *float64 `json:"kappa"`
	Alarm   bool     `json:"alarm"`
	Error   string   `json:"error"`
}

// serveBag generates the step-th deterministic bag of a stream (1-D,
// mean shift at step 8, inside the histogram range).
func serveBag(id string, step int) []float64 {
	seed := int64(0)
	for i := 0; i < len(id); i++ {
		seed = seed*131 + int64(id[i])
	}
	vals := make([]float64, 40)
	x := uint64(seed) + uint64(step)*0x9E3779B97F4A7C15
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Uniform in [-2, 2), shifted by +3 after the change point.
		v := float64(x%4000)/1000 - 2
		if step >= 8 {
			v += 3
		}
		vals[i] = v
	}
	return vals
}

func servePush(t *testing.T, base string, step int, ids ...string) []serveRow {
	t.Helper()
	var body strings.Builder
	for _, id := range ids {
		vals := serveBag(id, step)
		pts := make([][]float64, len(vals))
		for i, v := range vals {
			pts[i] = []float64{v}
		}
		blob, _ := json.Marshal(pts)
		fmt.Fprintf(&body, "{\"stream\":%q,\"bag\":%s}\n", id, blob)
	}
	resp, err := http.Post(base+"/v1/push", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status %d: %s", resp.StatusCode, raw)
	}
	var rows []serveRow
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var row serveRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestServeSnapshotRestoreTwoProcess is the end-to-end rebalancing
// acceptance flow: process A ingests half the data over HTTP, its
// snapshot is taken, A is killed, process B restores the envelope, and
// B's remaining scored rows are required to be EXACTLY (not
// approximately) those of an uninterrupted in-process reference run.
func TestServeSnapshotRestoreTwoProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	ids := []string{"proc-a", "proc-b", "proc-c"}
	const steps, cut = 12, 6

	// Uninterrupted reference, bit-exact by the engine contract.
	ref := refEngine(t)
	type key struct {
		id   string
		step int
	}
	want := make(map[key]*repro.Point)
	for step := 0; step < steps; step++ {
		var batch []repro.StreamBag
		for _, id := range ids {
			batch = append(batch, repro.StreamBag{StreamID: id, Bag: repro.BagFromScalars(step, serveBag(id, step))})
		}
		results, err := ref.PushBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			want[key{ids[i], step}] = res.Point
		}
	}

	// Process A: ingest the first half, snapshot, die.
	cmdA, baseA := startServeProcess(t)
	for step := 0; step < cut; step++ {
		servePush(t, baseA, step, ids...)
	}
	resp, err := http.Get(baseA + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	envelope, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, envelope)
	}
	if err := cmdA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmdA.Wait()

	// Process B: restore and finish the run.
	_, baseB := startServeProcess(t)
	resp, err = http.Post(baseB+"/v1/restore", "application/json", strings.NewReader(string(envelope)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d: %s", resp.StatusCode, msg)
	}

	for step := cut; step < steps; step++ {
		rows := servePush(t, baseB, step, ids...)
		for i, id := range ids {
			row := rows[i]
			if row.Error != "" {
				t.Fatalf("step %d stream %s: %s", step, id, row.Error)
			}
			if row.BagT != step {
				t.Fatalf("step %d stream %s: bag_t %d (restored clock out of sync)", step, id, row.BagT)
			}
			wp := want[key{id, step}]
			if wp == nil {
				if !row.Pending {
					t.Fatalf("step %d stream %s: expected pending, got %+v", step, id, row)
				}
				continue
			}
			if row.Score == nil || *row.Score != wp.Score ||
				*row.Lo != wp.Interval.Lo || *row.Up != wp.Interval.Up ||
				*row.T != wp.T || row.Alarm != wp.Alarm {
				t.Fatalf("step %d stream %s: restored row %+v != uninterrupted %+v (interval %+v)",
					step, id, row, wp, wp.Interval)
			}
		}
	}

	// The restored process reports the full per-stream push counts.
	resp, err = http.Get(baseB + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Streams []struct {
			ID     string `json:"id"`
			Pushed int    `json:"pushed"`
		} `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Streams) != len(ids) {
		t.Fatalf("streams after restore: %+v", listing.Streams)
	}
	for _, s := range listing.Streams {
		if s.Pushed != steps {
			t.Fatalf("stream %s pushed %d, want %d", s.ID, s.Pushed, steps)
		}
	}
}

// TestServePoolMaxRequiresOplog: a bounded pool spills to the oplog's
// store, so -pool-max without -oplog is a usage error (exit 2) that
// names the missing flag.
func TestServePoolMaxRequiresOplog(t *testing.T) {
	cmd := exec.Command(os.Args[0], append(append([]string{}, serveArgs...), "-pool-max", "1")...)
	cmd.Env = append(os.Environ(), "BAGCPD_SERVE_HELPER=1")
	out, err := cmd.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("bagcpd -serve -pool-max 1 = %v, want exit status 2 (output %q)", err, out)
	}
	if !strings.Contains(string(out), "-oplog") {
		t.Fatalf("error output %q does not name -oplog", out)
	}
}

// TestServeInvalidFlagRefused: a detector flag out of its range is a
// usage error (exit 2) at startup that names the flag — not a server
// that panics on the first interval it computes (-alpha NaN), answers
// every push with a row error (-k 0), or silently runs k-means
// (-hist-bins -3). The timeout turns a server that starts anyway into a
// failure instead of a hang.
func TestServeInvalidFlagRefused(t *testing.T) {
	for _, tc := range []struct {
		flag, value, names string
	}{
		{"-alpha", "NaN", "Alpha"},
		{"-k", "0", "-k"},
		{"-hist-bins", "-3", "-hist-bins"},
	} {
		t.Run(tc.flag+" "+tc.value, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append(append([]string{}, serveArgs...), tc.flag, tc.value)...)
			cmd.Env = append(os.Environ(), "BAGCPD_SERVE_HELPER=1")
			out, err := cmd.CombinedOutput()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 2 {
				t.Fatalf("bagcpd -serve %s %s = %v, want exit status 2 (output %q)", tc.flag, tc.value, err, out)
			}
			if !strings.Contains(string(out), tc.names) {
				t.Fatalf("error output %q does not name %s", out, tc.names)
			}
		})
	}
}
