package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// startBagcpd re-execs the test binary as a bagcpd process with the
// given flags (serve or route mode) and returns the command plus the
// base URL announced on stderr.
func startBagcpd(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd, base, _ := startBagcpdLogged(t, args...)
	return cmd, base
}

// stderrLog collects a bagcpd process's stderr lines.
type stderrLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *stderrLog) add(line string) {
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
}

// find returns the first line containing substr, or "".
func (l *stderrLog) find(substr string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

// startBagcpdLogged is startBagcpd that also keeps the process's stderr
// lines; every line up to the address announcement is in the log when
// it returns.
func startBagcpdLogged(t *testing.T, args ...string) (*exec.Cmd, string, *stderrLog) {
	t.Helper()
	log := &stderrLog{}
	cmd := exec.Command(os.Args[0], args...)
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
			line := sc.Text()
			log.add(line)
			for _, marker := range []string{"msg=serving", "msg=routing"} {
				if addr := announcedAddr(line, marker); addr != "" {
					select {
					case urlc <- addr:
					default:
					}
				}
			}
		}
	}()
	select {
	case u := <-urlc:
		return cmd, u, log
	case <-time.After(20 * time.Second):
		t.Fatal("bagcpd process did not announce its address")
		return nil, "", nil
	}
}

// startMember launches a bagcpd -serve member on addr with the shared
// detector configuration (serveArgs minus its "-serve 127.0.0.1:0"
// prefix), plus any extra flags.
func startMember(t *testing.T, addr string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-serve", addr}, serveArgs[2:]...)
	return startBagcpd(t, append(args, extra...)...)
}

// startRouter launches a bagcpd -route process over the member URLs.
func startRouter(t *testing.T, members []string) (*exec.Cmd, string) {
	t.Helper()
	return startBagcpd(t, "-route", "127.0.0.1:0", "-members", strings.Join(members, ","))
}

// migrate asks the router to move streams onto target and fails the test
// unless the router confirms every one of them.
func migrate(t *testing.T, routerURL string, streams []string, target string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"streams": streams, "target": target})
	resp, err := http.Post(routerURL+"/v1/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d: %s", resp.StatusCode, blob)
	}
	var result struct {
		Migrated []string `json:"migrated"`
	}
	if err := json.Unmarshal(blob, &result); err != nil {
		t.Fatal(err)
	}
	if len(result.Migrated) != len(streams) {
		t.Fatalf("migrated %v, want %v", result.Migrated, streams)
	}
}

// fleetStreams picks n stream ids per member by asking an in-process
// ring with the same member list — ownership is a pure function of the
// member set, so the test and the router process agree.
func fleetStreams(t *testing.T, members []string, n int) map[string][]string {
	t.Helper()
	rt, err := repro.NewRouter(repro.RouterConfig{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	byMember := make(map[string][]string)
	short := func() bool {
		for _, m := range members {
			if len(byMember[m]) < n {
				return true
			}
		}
		return false
	}
	for i := 0; short(); i++ {
		if i > 100000 {
			t.Fatal("ring never assigned enough streams to every member")
		}
		id := fmt.Sprintf("c-%d", i)
		owner := rt.Owner(id)
		if len(byMember[owner]) < n {
			byMember[owner] = append(byMember[owner], id)
		}
	}
	return byMember
}

// checkRouted compares one routed response row against the reference
// point for (id, step).
func checkRouted(t *testing.T, row serveRow, id string, step int, want *repro.Point) {
	t.Helper()
	if row.Error != "" {
		t.Fatalf("step %d stream %s: error row %q", step, id, row.Error)
	}
	if row.Stream != id || row.BagT != step {
		t.Fatalf("step %d: row (%s, %d), want (%s, %d) — ordering broken", step, row.Stream, row.BagT, id, step)
	}
	if want == nil {
		if !row.Pending {
			t.Fatalf("step %d stream %s: want pending, got %+v", step, id, row)
		}
		return
	}
	if row.Score == nil || *row.Score != want.Score ||
		*row.Lo != want.Interval.Lo || *row.Up != want.Interval.Up ||
		*row.T != want.T || row.Alarm != want.Alarm {
		t.Fatalf("step %d stream %s: routed row %+v != reference %+v (interval %+v)", step, id, row, want, want.Interval)
	}
}

type refKey struct {
	id   string
	step int
}

// referenceRun scores every (stream, step) on one uninterrupted
// in-process engine — the oracle the routed fleet must match bit-exactly
// whatever migrations and crashes happen along the way.
func referenceRun(t *testing.T, ids []string, steps int) map[refKey]*repro.Point {
	t.Helper()
	ref := refEngine(t)
	want := make(map[refKey]*repro.Point)
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
			want[refKey{ids[i], step}] = res.Point
		}
	}
	return want
}

// TestRouteTwoInstanceSmoke is the CI smoke slice of the chaos flow: a
// 2-member fleet behind a router process, one live migration
// mid-traffic, every scored row bit-identical to the single-engine
// reference. Runs in a few seconds; the full 3-instance SIGKILL chaos
// flow is TestRouteChaosThreeInstances.
func TestRouteTwoInstanceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	_, memA := startMember(t, "127.0.0.1:0")
	_, memB := startMember(t, "127.0.0.1:0")
	members := []string{memA, memB}
	_, front := startRouter(t, members)

	byMember := fleetStreams(t, members, 2)
	ids := append(append([]string{}, byMember[memA]...), byMember[memB]...)
	const steps, cut = 10, 5
	want := referenceRun(t, ids, steps)

	for step := 0; step < cut; step++ {
		rows := servePush(t, front, step, ids...)
		for i, id := range ids {
			checkRouted(t, rows[i], id, step, want[refKey{id, step}])
		}
	}
	migrate(t, front, byMember[memA][:1], memB)
	for step := cut; step < steps; step++ {
		rows := servePush(t, front, step, ids...)
		for i, id := range ids {
			checkRouted(t, rows[i], id, step, want[refKey{id, step}])
		}
	}
}

// TestRouteChaosThreeInstances is the full cluster acceptance flow from
// the roadmap: a 3-instance fleet of REAL bagcpd processes behind a real
// router process, streams live-migrated mid-traffic, one instance
// SIGKILL'd and restored from its snapshot, traffic pushed during the
// outage failing with per-row errors and retried cleanly after the
// restore — and at the end of all that, every scored row the fleet ever
// produced is bit-identical to an undisturbed single-engine run.
func TestRouteChaosThreeInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	_, mem0 := startMember(t, "127.0.0.1:0")
	_, mem1 := startMember(t, "127.0.0.1:0")
	cmd2, mem2 := startMember(t, "127.0.0.1:0")
	members := []string{mem0, mem1, mem2}
	_, front := startRouter(t, members)

	byMember := fleetStreams(t, members, 2)
	var ids []string
	for _, m := range members {
		ids = append(ids, byMember[m]...)
	}
	const (
		steps     = 12
		migrateAt = 4 // move two streams off member 0 mid-traffic
		killAt    = 8 // SIGKILL member 2, restore from snapshot, retry
	)
	want := referenceRun(t, ids, steps)
	pushAll := func(step int) {
		t.Helper()
		rows := servePush(t, front, step, ids...)
		if len(rows) != len(ids) {
			t.Fatalf("step %d: %d rows for %d inputs", step, len(rows), len(ids))
		}
		for i, id := range ids {
			checkRouted(t, rows[i], id, step, want[refKey{id, step}])
		}
	}

	for step := 0; step < migrateAt; step++ {
		pushAll(step)
	}

	// Live migration mid-traffic: member 0's streams move to member 1.
	moved := byMember[mem0]
	migrate(t, front, moved, mem1)

	for step := migrateAt; step < killAt; step++ {
		pushAll(step)
	}

	// Crash-restore cycle for member 2: capture its envelope, SIGKILL it
	// (no drain, no goodbye), and while it is down push a batch aimed
	// only at its streams — the router must answer per-row errors naming
	// the dead member, NOT apply the rows anywhere.
	resp, err := http.Get(mem2 + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	envelope, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, envelope)
	}
	if err := cmd2.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd2.Wait()

	deadIDs := byMember[mem2]
	rows := servePush(t, front, killAt, deadIDs...)
	for i, id := range deadIDs {
		if rows[i].Stream != id || rows[i].Error == "" || !strings.Contains(rows[i].Error, mem2) {
			t.Fatalf("outage row %+v, want error naming %s", rows[i], mem2)
		}
	}

	// Restart on the SAME address (the router's member list is static)
	// and restore the envelope. The failed batch above was never applied,
	// so retrying the same step must now produce exactly the reference
	// rows — the crash is invisible in the scores.
	addr := strings.TrimPrefix(mem2, "http://")
	_, mem2b := startMember(t, addr)
	if mem2b != mem2 {
		t.Fatalf("member restarted on %s, want %s", mem2b, mem2)
	}
	resp, err = http.Post(mem2+"/v1/restore", "application/json", bytes.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d: %s", resp.StatusCode, msg)
	}

	for step := killAt; step < steps; step++ {
		pushAll(step)
	}

	// The fleet's aggregated listing accounts for every stream exactly
	// once, with the moved streams on their new member.
	resp, err = http.Get(front + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Streams []struct {
			ID     string `json:"id"`
			Member string `json:"member"`
			Pushed int    `json:"pushed"`
		} `json:"streams"`
		Unreachable []string `json:"unreachable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Unreachable) != 0 {
		t.Fatalf("unreachable members at end of run: %v", listing.Unreachable)
	}
	if len(listing.Streams) != len(ids) {
		t.Fatalf("fleet lists %d streams, want %d: %+v", len(listing.Streams), len(ids), listing.Streams)
	}
	for _, s := range listing.Streams {
		for _, id := range moved {
			if s.ID == id && s.Member != mem1 {
				t.Fatalf("migrated stream %s listed on %s, want %s", id, s.Member, mem1)
			}
		}
		if s.Pushed != steps {
			t.Fatalf("stream %s pushed %d, want %d", s.ID, s.Pushed, steps)
		}
	}

	// Router metrics saw the migrations and the outage.
	resp, err = http.Get(front + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(metrics)
	for _, wantLine := range []string{
		fmt.Sprintf("bagcpd_router_migrations_total %d", len(moved)),
		fmt.Sprintf("bagcpd_router_member_up{member=%q} 1", mem2),
	} {
		if !strings.Contains(text, wantLine) {
			t.Fatalf("router metrics missing %q:\n%s", wantLine, text)
		}
	}
	if !strings.Contains(text, "bagcpd_router_member_errors_total") ||
		strings.Contains(text, "bagcpd_router_member_errors_total 0\n") {
		t.Fatalf("router metrics should have counted the outage errors:\n%s", text)
	}
}
