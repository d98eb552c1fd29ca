// Package router is the cluster front tier over a fleet of bagcpd
// -serve instances: the paper's detector is per-stream, so the workload
// shards perfectly — the router consistent-hashes stream ids over a
// static member list, forwards NDJSON push batches to the owning
// instances, and migrates LIVE streams between members without losing
// or recomputing a single score (the members' snapshot envelopes are
// bit-identical state, so a moved stream's future output is exactly
// what it would have been had it never moved).
//
// Endpoints:
//
//	POST /v1/push      NDJSON rows exactly as the member API: the router
//	                   validates rows, splits the batch into per-member
//	                   sub-batches (preserving per-stream order), forwards
//	                   them concurrently, and streams back one result row
//	                   per input row IN INPUT ORDER. If any owning member
//	                   answers 429 the router answers 429 with Retry-After
//	                   taken from the slowest member; see the wire-format
//	                   notes below.
//	GET  /v1/streams   the fleet's open streams, aggregated across all
//	                   members; each row gains a "member" field.
//	GET  /v1/streams/{id}/stats
//	                   per-stream introspection (bag clock, window fill,
//	                   last inspection, per-stage costs), proxied to the
//	                   member that currently owns the stream.
//	POST /v1/migrate   {"streams": [...], "target": member}: live
//	                   migration — quiesce routing, extract the streams'
//	                   state from their current owners, adopt on the
//	                   target, flip the routing table, resume.
//	GET  /v1/members   member list with ring ownership share and a live
//	                   health probe.
//	GET  /metrics      router counters plus fleet-aggregated member
//	                   counters (summed across reachable members).
//	GET  /healthz      liveness probe (of the router itself).
//
// Wire-format guarantees for /v1/push:
//
//   - The response carries exactly one NDJSON row per input row, in input
//     order, whatever members the rows fanned out to.
//   - Rows of one stream are applied in input order (they form one
//     sub-batch to one member, and members preserve batch order).
//   - On 429, Retry-After is the MAXIMUM Retry-After among the refusing
//     members — the slowest member sets the pace, so a client that obeys
//     it will not immediately re-trip the same member. The body still
//     carries the full per-row result set: rows with results WERE applied
//     by their members and must not be re-sent; rows with a "member ...
//     busy" error were NOT applied and are safe to retry. Clients that
//     need all-or-nothing batches should keep each batch to a single
//     stream.
//   - A member that is down (connection refused, timeout, non-push
//     status) fails only ITS rows: each gets an "error" row naming the
//     member, the rest of the batch proceeds. The batch status stays 200;
//     per-row errors are the member API's error contract too.
package router

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config parameterizes a Router.
type Config struct {
	// Members are the bagcpd -serve base URLs the router fronts (e.g.
	// "http://10.0.0.1:8080"; a bare host:port gets "http://"). Required,
	// static for the router's lifetime: membership changes are a restart
	// (the hash ring is a pure function of this list, so a rolling
	// restart of routers agrees on ownership at every step).
	Members []string
	// Replicas is the virtual-node count per member on the hash ring.
	// 0 selects the default (64).
	Replicas int
	// Client issues the forwarded requests. nil selects a client with a
	// 60s timeout.
	Client *http.Client
	// Logger receives the router's structured operational records
	// (migration spans, member failures, per-batch debug lines). nil
	// discards them.
	Logger *slog.Logger
}

// DefaultMemberTimeout bounds each forwarded request when Config.Client
// is nil.
const DefaultMemberTimeout = 60 * time.Second

// Router is the consistent-hash stream router. Create with New, mount
// as an http.Handler.
type Router struct {
	cfg     Config
	ring    *ring
	members []string // normalized, sorted
	mux     *http.ServeMux
	client  *http.Client
	met     routerMetrics
	log     *slog.Logger

	// state is the push/migration phase lock: pushes hold it shared,
	// migration exclusively — so a migrating stream can have no push in
	// flight through this router between its extract and its adopt.
	state sync.RWMutex

	// mu guards overrides: stream id -> member, for streams migrated off
	// their ring owner.
	mu        sync.Mutex
	overrides map[string]string
}

// New validates cfg and returns a ready Router.
func New(cfg Config) (*Router, error) {
	members := make([]string, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		n, err := normalizeMember(m)
		if err != nil {
			return nil, err
		}
		members = append(members, n)
	}
	sort.Strings(members)
	ring, err := newRing(members, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: DefaultMemberTimeout}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	r := &Router{
		cfg:       cfg,
		ring:      ring,
		members:   members,
		mux:       http.NewServeMux(),
		client:    client,
		met:       newRouterMetrics(),
		log:       logger,
		overrides: make(map[string]string),
	}
	r.mux.HandleFunc("POST /v1/push", r.handlePush)
	r.mux.HandleFunc("GET /v1/streams", r.handleStreams)
	r.mux.HandleFunc("GET /v1/streams/{id}/stats", r.handleStreamStats)
	r.mux.HandleFunc("POST /v1/migrate", r.handleMigrate)
	r.mux.HandleFunc("GET /v1/members", r.handleMembers)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return r, nil
}

func normalizeMember(m string) (string, error) {
	m = strings.TrimRight(strings.TrimSpace(m), "/")
	if m == "" {
		return "", fmt.Errorf("router: empty member address")
	}
	if !strings.Contains(m, "://") {
		m = "http://" + m
	}
	if !strings.HasPrefix(m, "http://") && !strings.HasPrefix(m, "https://") {
		return "", fmt.Errorf("router: member %q: only http(s) members are supported", m)
	}
	return m, nil
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Owner returns the member currently routing stream id: the migration
// override when one is set, the hash-ring owner otherwise.
func (r *Router) Owner(id string) string {
	r.mu.Lock()
	m, ok := r.overrides[id]
	r.mu.Unlock()
	if ok {
		return m
	}
	return r.ring.owner(id)
}

// Members returns the normalized member list.
func (r *Router) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// errorRow is a router-synthesized NDJSON result row. It carries the
// batch trace like member-produced rows do, so a client can correlate
// partial failures with the router's log records.
type errorRow struct {
	Stream string `json:"stream"`
	Error  string `json:"error"`
	Trace  string `json:"trace,omitempty"`
}

func marshalErrorRow(stream, msg, trace string) []byte {
	b, _ := json.Marshal(errorRow{Stream: stream, Error: msg, Trace: trace})
	return b
}

// mintTrace draws a fresh 8-byte hex trace ID for a push batch that
// arrived without one.
func mintTrace() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand does not fail on supported platforms; a fixed
		// sentinel keeps the batch traceable even if it somehow does.
		return "trace-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// memberBatch is one member's slice of a push batch.
type memberBatch struct {
	member string
	rows   []int // input row indices, in input order
	body   bytes.Buffer

	lines      [][]byte // per-row response lines, parallel to rows
	busy       bool     // member answered 429
	retryAfter int      // its Retry-After seconds
}

func (r *Router) handlePush(w http.ResponseWriter, req *http.Request) {
	r.state.RLock()
	defer r.state.RUnlock()

	// Correlate the batch across the fleet: propagate the caller's trace
	// ID or mint one, forward it to every owning member (which echoes it
	// in each result row), and hand it back in the response header.
	start := time.Now()
	trace := req.Header.Get(obs.TraceHeader)
	if trace == "" {
		trace = mintTrace()
	}

	// Parse and validate the whole batch up front with the member
	// server's decoder: a malformed line rejects the request before ANY
	// sub-batch is forwarded, so a 400 always means "nothing was
	// applied". Each valid raw line is dealt straight into its owning
	// member's sub-batch, preserving input order inside each sub-batch
	// (and therefore per-stream order: a stream's rows all go to one
	// member). Members get each row's line as the client sent it, less
	// surrounding whitespace.
	var streams []string // per-row stream id, in input order
	index := make(map[string]*memberBatch)
	var batches []*memberBatch
	deal := func(row server.PushRow, line []byte) error {
		owner := r.Owner(row.Stream)
		mb, ok := index[owner]
		if !ok {
			mb = &memberBatch{member: owner}
			index[owner] = mb
			batches = append(batches, mb)
		}
		mb.rows = append(mb.rows, len(streams))
		mb.body.Write(line)
		mb.body.WriteByte('\n')
		streams = append(streams, row.Stream)
		return nil
	}
	// The member's body cap: a batch the router accepts fits every member.
	body, err := server.ReadBody(w, req, server.DefaultMaxBatchBytes)
	if err == nil {
		err = server.DecodePushRows(body, deal)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("batch exceeds %d bytes", server.DefaultMaxBatchBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(streams) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}

	// Forward the sub-batches concurrently and collect per-row result
	// lines. Member failures degrade to per-row error rows; 429s are
	// collected and propagated batch-wide below.
	var wg sync.WaitGroup
	for _, mb := range batches {
		wg.Add(1)
		go func(mb *memberBatch) {
			defer wg.Done()
			r.forward(mb, streams, trace)
		}(mb)
	}
	wg.Wait()

	r.met.pushBatches.Inc()
	r.met.pushRows.Add(uint64(len(streams)))
	r.met.forwarded.Add(uint64(len(batches)))

	// Reassemble into input order.
	out := make([][]byte, len(streams))
	busy := false
	retryAfter := 0
	for _, mb := range batches {
		if mb.busy {
			busy = true
			if mb.retryAfter > retryAfter {
				retryAfter = mb.retryAfter
			}
		}
		for k, i := range mb.rows {
			out[i] = mb.lines[k]
		}
	}
	w.Header().Set(obs.TraceHeader, trace)
	if busy {
		// Retry-After from the slowest member: the batch must wait for
		// the most overloaded instance before a retry can fully apply.
		r.met.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusTooManyRequests)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	bw := bufio.NewWriter(w)
	for _, line := range out {
		bw.Write(line)
		bw.WriteByte('\n')
	}
	bw.Flush()
	r.log.Debug("push batch routed",
		"trace", trace, "rows", len(streams), "members", len(batches),
		"busy", busy, "duration", time.Since(start))
}

// forward ships one member's sub-batch — carrying the batch trace in
// the push header — and fills mb.lines with exactly one response line
// per row.
func (r *Router) forward(mb *memberBatch, streams []string, trace string) {
	mb.lines = make([][]byte, len(mb.rows))
	fail := func(msg string) {
		r.met.memberErrors.Inc()
		r.log.Warn("member push failed",
			"member", mb.member, "rows", len(mb.rows), "trace", trace, "error", msg)
		for k, i := range mb.rows {
			mb.lines[k] = marshalErrorRow(streams[i], fmt.Sprintf("member %s: %s", mb.member, msg), trace)
		}
	}
	req, err := http.NewRequest(http.MethodPost, mb.member+"/v1/push", bytes.NewReader(mb.body.Bytes()))
	if err != nil {
		fail(fmt.Sprintf("building request: %v", err))
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(obs.TraceHeader, trace)
	resp, err := r.client.Do(req)
	if err != nil {
		fail(fmt.Sprintf("unreachable: %v", err))
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		sc := bufio.NewScanner(resp.Body)
		// Grow from bufio's 4 KiB default: a preallocated large buffer
		// would cost every request, most of whose lines are short.
		sc.Buffer(nil, 1<<26)
		k := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			if k < len(mb.rows) {
				// The one copy: sc.Bytes is reused by the next Scan.
				mb.lines[k] = append([]byte(nil), line...)
			}
			k++
		}
		if err := sc.Err(); err != nil || k != len(mb.rows) {
			// A short or broken response leaves unknown row outcomes;
			// report that honestly instead of inventing results.
			fail(fmt.Sprintf("returned %d result rows for %d pushed (read error: %v)", k, len(mb.rows), err))
		}
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		mb.busy = true
		mb.retryAfter = 1
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			mb.retryAfter = ra
		}
		for k, i := range mb.rows {
			mb.lines[k] = marshalErrorRow(streams[i], fmt.Sprintf("member %s busy (429, retry after %ds); rows NOT applied", mb.member, mb.retryAfter), trace)
		}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fail(fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg))))
	}
}

// fleetStream is one row of the aggregated GET /v1/streams.
type fleetStream struct {
	ID          string  `json:"id"`
	Pushed      int     `json:"pushed"`
	IdleSeconds float64 `json:"idle_seconds"`
	Member      string  `json:"member"`
}

func (r *Router) handleStreams(w http.ResponseWriter, _ *http.Request) {
	r.state.RLock()
	defer r.state.RUnlock()
	type memberResult struct {
		member  string
		streams []fleetStream
		err     error
	}
	results := make([]memberResult, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			results[i].member = m
			var listing struct {
				Streams []fleetStream `json:"streams"`
			}
			err := r.getJSON(m+"/v1/streams", &listing)
			if err != nil {
				results[i].err = err
				return
			}
			for k := range listing.Streams {
				listing.Streams[k].Member = m
			}
			results[i].streams = listing.Streams
		}(i, m)
	}
	wg.Wait()

	var all []fleetStream
	var unreachable []string
	for _, res := range results {
		if res.err != nil {
			r.met.memberErrors.Inc()
			r.log.Warn("member streams listing failed", "member", res.member, "error", res.err)
			unreachable = append(unreachable, res.member)
			continue
		}
		all = append(all, res.streams...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	out := map[string]any{"streams": all}
	if len(unreachable) > 0 {
		out["unreachable"] = unreachable
	}
	writeJSON(w, out)
}

// handleStreamStats proxies the per-stream introspection endpoint to
// the member that currently owns the stream, so an operator can inspect
// any stream through the front tier without knowing the ring.
func (r *Router) handleStreamStats(w http.ResponseWriter, req *http.Request) {
	r.state.RLock()
	defer r.state.RUnlock()
	id := req.PathValue("id")
	owner := r.Owner(id)
	resp, err := r.client.Get(owner + "/v1/streams/" + url.PathEscape(id) + "/stats")
	if err != nil {
		r.met.memberErrors.Inc()
		r.log.Warn("member stats proxy failed", "member", owner, "stream", id, "error", err)
		http.Error(w, fmt.Sprintf("member %s unreachable: %v", owner, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// migrateRequest is the body of POST /v1/migrate.
type migrateRequest struct {
	Streams []string `json:"streams"`
	Target  string   `json:"target"`
}

// handleMigrate moves live streams between members: quiesce pushes
// (exclusive phase lock), extract each stream's state from its current
// owner, adopt it on the target, flip the routing override, resume. The
// per-member snapshot envelope is bit-identical state, so the move is
// invisible in the scores. Streams are processed grouped by source
// member; a failure rolls the in-flight group back onto its source and
// reports what DID move, so the fleet is never left with a stream in
// zero or two places.
func (r *Router) handleMigrate(w http.ResponseWriter, req *http.Request) {
	var mr migrateRequest
	if err := json.NewDecoder(req.Body).Decode(&mr); err != nil {
		http.Error(w, fmt.Sprintf("decoding migrate request: %v", err), http.StatusBadRequest)
		return
	}
	if len(mr.Streams) == 0 {
		http.Error(w, "migrate request names no streams", http.StatusBadRequest)
		return
	}
	target, err := normalizeMember(mr.Target)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !r.isMember(target) {
		http.Error(w, fmt.Sprintf("target %q is not a member", target), http.StatusBadRequest)
		return
	}

	// Quiesce: no push can be in flight through this router while
	// ownership moves. (Members still drain their OWN in-flight batches
	// under their phase lock when /v1/streams/extract runs.)
	r.state.Lock()
	defer r.state.Unlock()

	// Validate the id list before consulting ownership, so a malformed
	// request is always a 400 regardless of where its streams hash.
	seen := make(map[string]bool, len(mr.Streams))
	for _, id := range mr.Streams {
		if id == "" {
			http.Error(w, "empty stream id", http.StatusBadRequest)
			return
		}
		if seen[id] {
			http.Error(w, fmt.Sprintf("stream %q named twice", id), http.StatusBadRequest)
			return
		}
		seen[id] = true
	}

	// Group the streams by their current owner.
	bySource := make(map[string][]string)
	var sources []string
	for _, id := range mr.Streams {
		owner := r.Owner(id)
		if owner == target {
			http.Error(w, fmt.Sprintf("stream %q already routes to %s", id, target), http.StatusConflict)
			return
		}
		if _, ok := bySource[owner]; !ok {
			sources = append(sources, owner)
		}
		bySource[owner] = append(bySource[owner], id)
	}

	start := time.Now()
	var migrated []string
	for _, source := range sources {
		ids := bySource[source]
		groupStart := time.Now()
		env, err := r.extract(source, ids)
		if err != nil {
			r.log.Error("migration extract failed",
				"source", source, "target", target, "streams", len(ids), "error", err)
			r.migrateError(w, http.StatusBadGateway, migrated,
				fmt.Errorf("extract %v from %s: %w (streams still on %s)", ids, source, err, source), nil)
			return
		}
		if err := r.adopt(target, env); err != nil {
			// The source no longer has the streams and the target refused
			// them: put them back where they came from. If even that
			// fails, the envelope in the error response is the only copy
			// of the stream state — surface it rather than lose it.
			if rbErr := r.adopt(source, env); rbErr != nil {
				r.met.migrateFailures.Inc()
				r.log.Error("migration adopt and rollback failed; envelope orphaned",
					"source", source, "target", target, "streams", len(ids),
					"adopt_error", err, "rollback_error", rbErr)
				r.migrateError(w, http.StatusInternalServerError, migrated,
					fmt.Errorf("adopt %v on %s failed (%v) AND rollback onto %s failed (%v); envelope attached", ids, target, err, source, rbErr), env)
				return
			}
			r.met.migrateFailures.Inc()
			r.log.Error("migration adopt failed, rolled back onto source",
				"source", source, "target", target, "streams", len(ids), "error", err)
			r.migrateError(w, http.StatusConflict, migrated,
				fmt.Errorf("adopt %v on %s: %w (rolled back onto %s)", ids, target, err, source), nil)
			return
		}
		// Flip routing for this group. An override that matches the ring
		// owner is dropped — the ring already says so.
		r.mu.Lock()
		for _, id := range ids {
			if r.ring.owner(id) == target {
				delete(r.overrides, id)
			} else {
				r.overrides[id] = target
			}
		}
		r.mu.Unlock()
		migrated = append(migrated, ids...)
		r.met.migrations.Add(uint64(len(ids)))
		r.log.Info("migration group moved",
			"source", source, "target", target, "streams", len(ids),
			"duration", time.Since(groupStart))
	}
	sort.Strings(migrated)
	r.log.Info("migration complete",
		"target", target, "streams", len(migrated), "sources", len(sources),
		"duration", time.Since(start))
	writeJSON(w, map[string]any{"migrated": migrated, "target": target})
}

// migrateError reports a failed migration, naming the streams that DID
// move before the failure and, when the state could not be parked on any
// member, the orphaned envelope itself.
func (r *Router) migrateError(w http.ResponseWriter, status int, migrated []string, err error, orphan *core.EngineSnapshot) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	out := map[string]any{"error": err.Error()}
	if len(migrated) > 0 {
		sort.Strings(migrated)
		out["migrated"] = migrated
	}
	if orphan != nil {
		out["orphaned_envelope"] = orphan
	}
	json.NewEncoder(w).Encode(out)
}

func (r *Router) isMember(m string) bool {
	for _, have := range r.members {
		if have == m {
			return true
		}
	}
	return false
}

// extract pulls the named streams' state off source (closing them
// there).
func (r *Router) extract(source string, ids []string) (*core.EngineSnapshot, error) {
	body, _ := json.Marshal(map[string]any{"streams": ids})
	resp, err := r.client.Post(source+"/v1/streams/extract", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var env core.EngineSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("decoding envelope: %w", err)
	}
	return &env, nil
}

// adopt merges an envelope's streams into member m.
func (r *Router) adopt(m string, env *core.EngineSnapshot) error {
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	resp, err := r.client.Post(m+"/v1/streams/adopt", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// memberInfo is one row of GET /v1/members.
type memberInfo struct {
	Member string `json:"member"`
	Up     bool   `json:"up"`
	// Overrides is how many streams route here against the ring (in from
	// migrations), informational for rebalancing tools.
	Overrides int `json:"overrides"`
}

func (r *Router) handleMembers(w http.ResponseWriter, _ *http.Request) {
	infos := make([]memberInfo, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			infos[i] = memberInfo{Member: m, Up: r.probe(m)}
		}(i, m)
	}
	wg.Wait()
	r.mu.Lock()
	for i := range infos {
		n := 0
		for _, m := range r.overrides {
			if m == infos[i].Member {
				n++
			}
		}
		infos[i].Overrides = n
	}
	r.mu.Unlock()
	writeJSON(w, map[string]any{"members": infos})
}

// probe checks a member's liveness.
func (r *Router) probe(m string) bool {
	resp, err := r.client.Get(m + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (r *Router) getJSON(url string, v any) error {
	resp, err := r.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
