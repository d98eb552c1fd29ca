// Package server puts a stdlib-only net/http front-end on the
// multi-stream detector engine: NDJSON batch ingest, stream lifecycle
// endpoints, engine snapshot/restore for rebalancing streams across
// instances, back-pressure, idle-stream eviction, and a Prometheus-style
// metrics endpoint.
//
// Endpoints:
//
//	POST /v1/push                NDJSON rows {"stream": id, "bag": [[...],...]};
//	                             the response streams back one NDJSON row per
//	                             input row (pending / scored / error). 429 when
//	                             the in-flight batch limit is reached.
//	GET  /v1/streams             open streams with per-stream push counts and
//	                             idle ages.
//	POST /v1/streams/{id}/close  close one stream (its detector recycles into
//	                             the engine pool; a later push restarts the
//	                             stream from scratch).
//	POST /v1/streams/extract     serialize the named streams into a partial
//	                             envelope AND close them here — the donor half
//	                             of a live migration.
//	POST /v1/streams/adopt       merge a partial envelope's streams into the
//	                             live engine — the receiving half of a live
//	                             migration. 409 if any stream is already open.
//	GET  /v1/snapshot            the full engine state as a versioned JSON
//	                             envelope (core.EngineSnapshot), spilled
//	                             streams included. Pushes are
//	                             paused while the snapshot is taken.
//	POST /v1/restore             replace all engine state with an envelope
//	                             previously served by /v1/snapshot — restored
//	                             streams are bit-identical going forward to
//	                             ones that never stopped. A refused envelope
//	                             (409) leaves the live streams untouched.
//	GET  /metrics                Prometheus text exposition.
//	GET  /healthz                liveness probe.
//
// Concurrency model: push batches run concurrently up to
// Config.MaxInFlight (back-pressure beyond that is the client's signal
// to slow down). Concurrent batches touching the same stream are applied
// atomically per batch, but their relative order is whatever arrival
// order the engine sees — clients that need a deterministic stream must
// serialize their own pushes, exactly as with Engine.PushBatch.
// Snapshot and restore take an exclusive lock: they wait for running
// batches to finish and hold new ones until the state transfer is done.
//
// Serving state is captured one way at each scale: a full envelope
// (/v1/snapshot, a checkpoint) is a cut, extract/adopt is a migration,
// and the oplog is the only incremental record.
//
// Durability (optional, Config.OplogDir): every applied push row is
// appended to a write-ahead oplog and group-commit fsynced BEFORE the
// batch's 200 is written, so a SIGKILL'd instance replays back to
// exactly the acknowledged prefix of every stream. Checkpoints collapse
// the log into a full engine envelope (automatic once checkpointBytes
// of log accumulate, and on graceful drain). The oplog carries a spill
// store: idle streams evicted by IdleTTL spill their envelopes there
// instead of being discarded, and with Config.MaxResident the detector
// pool is bounded the same way. A push to a spilled stream faults it
// back in transparently — bit-identical to a stream that never left
// memory. Without an oplog, eviction discards and the pool is unbounded.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oplog"
)

// TraceHeader is the batch-correlation header: the router mints a trace
// ID per push batch (or propagates a caller-supplied one) and forwards
// it here, the server echoes it in every per-row result and in its
// slow-batch log lines, and the response carries it back. One user push
// is thereby traceable across the whole fleet.
const TraceHeader = obs.TraceHeader

// Config parameterizes a Server.
type Config struct {
	// Engine is the detector engine the server fronts. Required; the
	// server assumes ownership (all pushes and lifecycle changes must go
	// through the server once it is constructed).
	Engine *core.Engine
	// MaxInFlight bounds the push batches executing concurrently; pushes
	// beyond it are refused with 429. 0 selects DefaultMaxInFlight.
	MaxInFlight int
	// MaxBatchBags bounds the rows of one push batch (a single giant
	// batch would hold a back-pressure slot indefinitely). 0 selects
	// DefaultMaxBatchBags.
	MaxBatchBags int
	// MaxBatchBytes bounds one push request's body size — the memory a
	// request can make the server buffer, which the row cap alone does
	// not (rows can be arbitrarily large). Requests beyond it are
	// refused with 413. 0 selects DefaultMaxBatchBytes.
	MaxBatchBytes int64
	// IdleTTL evicts streams that have not been pushed to for this long.
	// With an oplog the evicted stream spills to disk and its next push
	// resumes it; without one its state is DISCARDED (a later push
	// restarts the stream from scratch). The janitor sweeps every
	// IdleTTL/4, but at most once a second. 0 disables eviction.
	IdleTTL time.Duration
	// Logger receives the server's structured operational events
	// (slow batches, evictions, snapshot/restore/migration spans). nil
	// discards them.
	Logger *slog.Logger
	// SlowPush is the batch-duration threshold above which a push batch
	// is logged (threshold sampling keeps the log volume proportional to
	// trouble, not traffic). 0 selects DefaultSlowPush; negative disables
	// slow-batch logging.
	SlowPush time.Duration
	// Now overrides the clock, for tests. nil selects time.Now.
	Now func() time.Time

	// OplogDir enables the write-ahead oplog: every applied push row is
	// made durable there before its batch is acknowledged, and the server
	// replays the directory's checkpoint + log suffix at startup. The
	// oplog's spill store holds evicted and paged-out streams. Empty
	// disables durability and spilling.
	OplogDir string
	// MaxResident bounds the detector streams resident in memory; pushes
	// that would exceed it spill the least-recently-pushed streams first.
	// Requires OplogDir. 0 means unbounded.
	MaxResident int
}

// Defaults for Config's zero values.
const (
	DefaultMaxInFlight   = 32
	DefaultMaxBatchBags  = 65536
	DefaultMaxBatchBytes = 64 << 20
	DefaultSlowPush      = time.Second
)

// evictBatch bounds how many streams one eviction sweep closes (or
// spills) per exclusive-lock acquisition: pushes interleave between
// batches instead of stalling behind a whole O(streams) sweep.
const evictBatch = 64

// Server is the HTTP front-end. Create with New, mount as an
// http.Handler, and Close when done (stops the eviction janitor).
type Server struct {
	cfg Config
	eng *core.Engine
	mux *http.ServeMux
	met *metrics
	log *slog.Logger
	now func() time.Time

	sem chan struct{} // in-flight push slots (back-pressure)

	// state is the push/snapshot phase lock: pushes, closes and evictions
	// hold it shared; snapshot and restore hold it exclusively so the
	// engine is quiescent while state is captured or replaced.
	state sync.RWMutex

	// mu guards lastPush, the last push wall time per stream (idle
	// eviction and LRU spill order by it).
	mu       sync.Mutex
	lastPush map[string]time.Time

	// Durability tier (durability.go). wal and spill (the oplog's spill
	// store) are both nil without Config.OplogDir.
	wal      *oplog.Log
	spill    *oplog.StreamStore
	poolPeak atomic.Int64   // high-water mark of resident streams
	ckptBusy atomic.Bool    // one background auto-checkpoint at a time
	bg       sync.WaitGroup // background checkpoints in flight

	// sweepPause, when set (tests), runs between eviction batches with no
	// locks held — the window a racing push slots into.
	sweepPause func()

	janitorStop chan struct{}
	janitorDone chan struct{}
	closeOnce   sync.Once
}

// New validates cfg and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxInFlight < 1 {
		return nil, fmt.Errorf("server: MaxInFlight must be >= 1, got %d", cfg.MaxInFlight)
	}
	if cfg.MaxBatchBags == 0 {
		cfg.MaxBatchBags = DefaultMaxBatchBags
	}
	if cfg.MaxBatchBags < 1 {
		return nil, fmt.Errorf("server: MaxBatchBags must be >= 1, got %d", cfg.MaxBatchBags)
	}
	if cfg.MaxBatchBytes == 0 {
		cfg.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if cfg.MaxBatchBytes < 1 {
		return nil, fmt.Errorf("server: MaxBatchBytes must be >= 1, got %d", cfg.MaxBatchBytes)
	}
	if cfg.IdleTTL < 0 {
		return nil, fmt.Errorf("server: IdleTTL must be >= 0, got %v", cfg.IdleTTL)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.SlowPush == 0 {
		cfg.SlowPush = DefaultSlowPush
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		mux:      http.NewServeMux(),
		met:      newMetrics(cfg.Engine),
		log:      cfg.Logger,
		now:      cfg.Now,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		lastPush: make(map[string]time.Time),
	}
	s.mux.HandleFunc("POST /v1/push", s.handlePush)
	s.mux.HandleFunc("GET /v1/streams", s.handleStreams)
	s.mux.HandleFunc("GET /v1/streams/{id}/stats", s.handleStreamStats)
	s.mux.HandleFunc("POST /v1/streams/{id}/close", s.handleCloseStream)
	s.mux.HandleFunc("POST /v1/streams/extract", s.handleExtract)
	s.mux.HandleFunc("POST /v1/streams/adopt", s.handleAdopt)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/restore", s.handleRestore)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// Durability: open the spill store and oplog, replay the crash suffix.
	// Before the janitor starts and before any handler can run, so the
	// recovery sees a quiescent engine.
	if err := s.initDurability(); err != nil {
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, err
	}
	if cfg.IdleTTL > 0 {
		every := cfg.IdleTTL / 4
		if every < time.Second {
			every = time.Second
		}
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor(every)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the eviction janitor, waits out background checkpoints,
// and closes the oplog (syncing any pending records). It does not shut
// down the engine — the caller owns that decision (a process draining
// gracefully calls Checkpoint first, then shuts the engine down).
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.janitorStop != nil {
			close(s.janitorStop)
			<-s.janitorDone
		}
		s.bg.Wait()
		if s.wal != nil {
			err = s.wal.Close()
		}
	})
	return err
}

// resultRow is one NDJSON response row, parallel to the input row.
// BagT is the index at which the engine applied the bag (for an error
// row, the index a retry will take); scored rows carry the inspection
// time T (which trails BagT by τ′−1 — the test window must fill before
// a time can be judged).
type resultRow struct {
	Stream  string   `json:"stream"`
	BagT    int      `json:"bag_t"`
	Pending bool     `json:"pending,omitempty"`
	T       *int     `json:"t,omitempty"`
	Score   *float64 `json:"score,omitempty"`
	Lo      *float64 `json:"lo,omitempty"`
	Up      *float64 `json:"up,omitempty"`
	Kappa   *float64 `json:"kappa,omitempty"` // absent while κ_t is undefined
	Alarm   bool     `json:"alarm,omitempty"`
	Error   string   `json:"error,omitempty"`
	// Trace is the batch's correlation ID, echoed from the TraceHeader
	// request header (the router mints one per batch). Absent on direct
	// pushes without the header.
	Trace string `json:"trace,omitempty"`
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	// The batch latency spans the whole accepted request: decode,
	// residency, apply, oplog sync and the flushed response.
	start := s.now()
	trace := r.Header.Get(TraceHeader)
	select {
	case s.sem <- struct{}{}:
	default:
		s.met.rejected.Inc()
		// The hint tracks observed batch latency: telling a client to
		// retry in 1s while batches take 10 only feeds the congestion.
		w.Header().Set("Retry-After", strconv.Itoa(s.met.retryAfterSeconds()))
		http.Error(w, "too many in-flight push batches", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.sem }()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	// Parse the whole batch before touching the engine: a malformed line
	// rejects the request instead of half-applying it. The body is
	// byte-capped — the row cap alone would let one request buffer
	// unbounded memory before any limit trips.
	body, err := ReadBody(w, r, s.cfg.MaxBatchBytes)
	var rows []PushRow
	if err == nil {
		rows, err = s.readRows(body)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("batch exceeds %d bytes", s.cfg.MaxBatchBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(rows) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}

	// Acquire the shared phase lock with every batch stream resident:
	// spilled streams fault back in and, when the pool is bounded, idle
	// residents spill out to make room (durability.go).
	streamSet := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		streamSet[row.Stream] = struct{}{}
	}
	if err := s.ensureResident(streamSet); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer s.state.RUnlock()

	// The engine assigns each row's bag_t (batch[i].Bag.T) under the
	// stream's lock, at the position the bag is applied.
	batch := make([]core.StreamBag, len(rows))
	for i, row := range rows {
		batch[i] = core.StreamBag{StreamID: row.Stream, Bag: bag.Bag{Points: row.Bag}}
	}

	// The oplog record for each applied row is enqueued from the engine's
	// apply hook — under the stream's lock, so per-stream log order is
	// apply order even across interleaving batches, and each record's
	// bag_t is its apply position. Durability comes from the Sync below,
	// before anything is acknowledged.
	var onApply func(i int, mark uint64)
	if s.wal != nil {
		onApply = func(i int, mark uint64) {
			s.wal.Enqueue(&oplog.Record{
				Op:     oplog.OpPush,
				Stream: batch[i].StreamID,
				BagT:   batch[i].Bag.T,
				Bag:    batch[i].Bag.Points,
				Mark:   mark,
				Trace:  trace,
			})
		}
	}
	results, _ := s.eng.PushBatchFn(batch, onApply) // errors are carried per-row
	if results == nil {
		// The engine itself refused (shut down mid-flight).
		http.Error(w, "engine is shut down", http.StatusServiceUnavailable)
		return
	}
	if s.spill != nil {
		s.notePoolPeak()
	}

	applied := s.now()
	s.mu.Lock()
	for _, row := range rows {
		s.lastPush[row.Stream] = applied
	}
	s.mu.Unlock()

	// The acknowledgement gate: no response row is written until every
	// applied row's oplog record is fsynced. On failure NOTHING is
	// acknowledged — the rows are applied in memory but the client must
	// treat the batch as not-ingested (the sticky log error keeps
	// refusing batches until the operator intervenes, so the in-memory
	// state cannot drift further from the durable one).
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			s.met.oplogSyncErrors.Inc()
			s.log.Error("oplog sync failed; refusing to acknowledge batch",
				"trace", trace, "bags", len(rows), "error", err)
			http.Error(w, "durability failure: batch not acknowledged", http.StatusServiceUnavailable)
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	if trace != "" {
		w.Header().Set(TraceHeader, trace)
	}
	out := bufio.NewWriter(w)
	enc := json.NewEncoder(out)
	points, rowErrors := 0, 0
	// Once a response write fails the connection is gone: every further
	// Encode would fail identically, so the loop stops writing at the
	// first failure and counts the rows the client never saw. (The rows
	// ARE applied and durable — the client re-syncs via /v1/streams.)
	dropped := 0
	for i, res := range results {
		rr := resultRow{Stream: res.StreamID, BagT: batch[i].Bag.T, Trace: trace}
		switch {
		case res.Err != nil:
			rowErrors++
			rr.Error = res.Err.Error()
		case res.Point == nil:
			rr.Pending = true
		default:
			points++
			p := res.Point
			rr.T = &p.T
			rr.Score = &p.Score
			rr.Lo = &p.Interval.Lo
			rr.Up = &p.Interval.Up
			if !math.IsNaN(p.Kappa) {
				rr.Kappa = &p.Kappa
			}
			rr.Alarm = p.Alarm
		}
		if dropped > 0 {
			dropped++
			continue
		}
		if err := enc.Encode(&rr); err != nil {
			dropped = 1
			s.log.Warn("push response write failed; dropping remaining rows",
				"trace", trace, "row", i, "error", err)
		}
	}
	if dropped == 0 {
		if err := out.Flush(); err != nil {
			dropped = 1
			s.log.Warn("push response flush failed", "trace", trace, "error", err)
		}
	}
	if dropped > 0 {
		s.met.respWriteErrors.Add(uint64(dropped))
	}
	elapsed := s.now().Sub(start)
	s.met.observeBatch(elapsed.Seconds(), len(rows), points, rowErrors)
	if s.cfg.SlowPush > 0 && elapsed >= s.cfg.SlowPush {
		s.log.Warn("slow push batch",
			"trace", trace,
			"bags", len(rows),
			"points", points,
			"row_errors", rowErrors,
			"duration", elapsed.Seconds())
	} else {
		s.log.Debug("push batch",
			"trace", trace,
			"bags", len(rows),
			"points", points,
			"row_errors", rowErrors,
			"duration", elapsed.Seconds())
	}
	s.maybeCheckpoint()
}

// readRows parses a push body into at most MaxBatchBags rows.
func (s *Server) readRows(body []byte) ([]PushRow, error) {
	var rows []PushRow
	err := DecodePushRows(body, func(row PushRow, _ []byte) error {
		rows = append(rows, row)
		if len(rows) > s.cfg.MaxBatchBags {
			return fmt.Errorf("batch exceeds %d bags", s.cfg.MaxBatchBags)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// streamInfo is one row of GET /v1/streams.
type streamInfo struct {
	ID          string  `json:"id"`
	Pushed      int     `json:"pushed"`
	IdleSeconds float64 `json:"idle_seconds"`
}

func (s *Server) handleStreams(w http.ResponseWriter, _ *http.Request) {
	s.state.RLock()
	defer s.state.RUnlock()
	now := s.now()
	ids := s.eng.StreamIDs()
	infos := make([]streamInfo, 0, len(ids))
	for _, id := range ids {
		info := streamInfo{ID: id}
		if st, ok := s.eng.Get(id); ok {
			info.Pushed = st.Seq()
		}
		infos = append(infos, info)
	}
	s.mu.Lock()
	for i := range infos {
		if last, ok := s.lastPush[infos[i].ID]; ok {
			infos[i].IdleSeconds = now.Sub(last).Seconds()
		}
	}
	s.mu.Unlock()
	s.writeJSON(w, map[string]any{"streams": infos})
}

func (s *Server) handleCloseStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Exclusive, not shared: a close racing an in-flight push under the
	// shared lock could tear the stream down between the push being
	// applied (and acknowledged 200) and its bookkeeping update.
	s.state.Lock()
	defer s.state.Unlock()
	st, ok := s.eng.Get(id)
	if !ok {
		// A spilled stream is still logically open; closing it drops its
		// on-disk envelope. The close record goes durable FIRST — if the
		// spill file outlived a logged close, recovery would resurrect a
		// stream the client was told is gone.
		if s.spill != nil && s.spill.Has(id) {
			if err := s.logCloseLocked(id); err != nil {
				http.Error(w, fmt.Sprintf("recording close: %v", err), http.StatusServiceUnavailable)
				return
			}
			if err := s.spill.Delete(id); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			s.forget(id)
			s.writeJSON(w, map[string]any{"closed": id})
			return
		}
		http.Error(w, fmt.Sprintf("stream %q is not open", id), http.StatusNotFound)
		return
	}
	// Durable close record before the in-memory teardown: on failure the
	// stream stays open and the client gets the error, instead of a close
	// that silently un-happens at the next crash.
	if err := s.logCloseLocked(id); err != nil {
		http.Error(w, fmt.Sprintf("recording close: %v", err), http.StatusServiceUnavailable)
		return
	}
	st.Close()
	s.forget(id)
	s.writeJSON(w, map[string]any{"closed": id})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	// Exclusive: waits for in-flight pushes, holds new ones. The engine
	// is fully quiescent for the duration, so the captured state is a
	// consistent cut across every stream.
	start := s.now()
	s.state.Lock()
	snap, err := s.eng.Snapshot()
	if err == nil {
		err = s.addSpilledLocked(snap)
	}
	s.state.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.met.snapshots.Inc()
	s.log.Info("snapshot served",
		"streams", len(snap.Streams),
		"mark", snap.Mark,
		"duration", s.now().Sub(start).Seconds())
	s.writeJSON(w, snap)
}

// extractRequest is the body of POST /v1/streams/extract.
type extractRequest struct {
	Streams []string `json:"streams"`
}

// handleExtract is the donor half of a live stream migration: under the
// exclusive phase lock (pushes quiesced), the named streams are
// serialized into a partial envelope, CLOSED on this instance, and the
// envelope is returned. From the moment the response is written this
// instance no longer owns the streams — the caller (the router) ships
// the envelope to the target's /v1/streams/adopt and flips routing.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req extractRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("decoding extract request: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Streams) == 0 {
		http.Error(w, "extract request names no streams", http.StatusBadRequest)
		return
	}
	start := s.now()
	s.state.Lock()
	defer s.state.Unlock()
	// Spilled streams are still this instance's to donate: fault them in
	// so the capture below sees them.
	if s.spill != nil {
		var spilled []string
		for _, id := range req.Streams {
			if s.spill.Has(id) {
				spilled = append(spilled, id)
			}
		}
		if err := s.faultInLocked(spilled); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	snap, err := s.eng.SnapshotStreams(req.Streams...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	// The extracted streams leave this instance, so their oplog story
	// ends in a durable close — recorded before the teardown, so a crash
	// cannot resurrect streams another instance now owns.
	if err := s.logCloseLocked(req.Streams...); err != nil {
		http.Error(w, fmt.Sprintf("recording extraction: %v", err), http.StatusServiceUnavailable)
		return
	}
	// Capture succeeded for every named stream; now drop them here. The
	// detectors recycle into the pool and the bookkeeping is forgotten so
	// a later life of the id starts from scratch.
	for _, id := range req.Streams {
		if st, ok := s.eng.Get(id); ok {
			st.Close()
			s.forget(id)
		}
	}
	s.met.extractions.Add(uint64(len(req.Streams)))
	s.log.Info("streams extracted",
		"streams", len(req.Streams),
		"duration", s.now().Sub(start).Seconds())
	s.writeJSON(w, snap)
}

// handleAdopt is the receiving half of a migration: the posted
// envelope's streams are merged into the live
// engine without touching its other streams. A stream already open here
// answers 409 — the engine state is left exactly as it was, so a
// botched migration never rewinds a live stream.
func (s *Server) handleAdopt(w http.ResponseWriter, r *http.Request) {
	var snap core.EngineSnapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		http.Error(w, fmt.Sprintf("decoding snapshot: %v", err), http.StatusBadRequest)
		return
	}
	start := s.now()
	s.state.Lock()
	defer s.state.Unlock()
	if err := s.eng.RestoreStreams(&snap); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.stampStreams(&snap)
	// Adopted state arrived without oplog records; only a checkpoint makes
	// it durable, and the donor has already let go. A checkpoint failure
	// keeps the streams live but reports 500 — the caller must not treat
	// the migration as safely landed.
	s.enforcePoolBoundLocked()
	if err := s.checkpointLocked("adopt"); err != nil {
		s.log.Error("post-adopt checkpoint failed", "error", err)
		http.Error(w, fmt.Sprintf("streams adopted but not yet durable: %v", err), http.StatusInternalServerError)
		return
	}
	s.met.adoptions.Add(uint64(len(snap.Streams)))
	s.log.Info("streams adopted",
		"streams", len(snap.Streams),
		"duration", s.now().Sub(start).Seconds())
	s.writeJSON(w, map[string]any{"adopted": len(snap.Streams)})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var snap core.EngineSnapshot
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&snap); err != nil {
		http.Error(w, fmt.Sprintf("decoding snapshot: %v", err), http.StatusBadRequest)
		return
	}

	start := s.now()
	s.state.Lock()
	defer s.state.Unlock()
	// Vet the envelope BEFORE tearing anything down: a mismatched
	// version or fingerprint, or a malformed stream state, must answer
	// 409 with the server's live streams untouched, not wipe them first.
	// An envelope ValidateSnapshot accepts restores onto an empty engine.
	if snap.Partial {
		http.Error(w, "envelope is partial; merge it via /v1/streams/adopt", http.StatusConflict)
		return
	}
	if err := s.eng.ValidateSnapshot(&snap); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	// Restore REPLACES state: close whatever is open (their detectors
	// recycle into the pool and are immediately reused by the restored
	// streams), then rebuild from the envelope.
	s.eng.CloseAll()
	if err := s.eng.Restore(&snap); err != nil {
		// Restore rolled back to no open streams.
		s.resetBookkeeping(nil)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.resetBookkeeping(&snap)
	// The envelope replaced ALL state: stale spill files would later
	// fault dead lives back in, and the old log no longer describes
	// anything. Clear the store and collapse the log into a covers-all
	// checkpoint.
	if err := s.clearSpillLocked(); err != nil {
		http.Error(w, fmt.Sprintf("restore applied but spill store not cleared: %v", err), http.StatusInternalServerError)
		return
	}
	s.enforcePoolBoundLocked()
	if err := s.checkpointAsLocked("restore", true); err != nil {
		s.log.Error("post-restore checkpoint failed", "error", err)
		http.Error(w, fmt.Sprintf("restore applied but not yet durable: %v", err), http.StatusInternalServerError)
		return
	}
	s.met.restores.Inc()
	s.log.Info("restore applied",
		"streams", len(snap.Streams),
		"duration", s.now().Sub(start).Seconds())
	s.writeJSON(w, map[string]any{"restored": len(snap.Streams)})
}

// resetBookkeeping rebuilds the per-stream idle stamps after a restore
// (or clears them when snap is nil).
func (s *Server) resetBookkeeping(snap *core.EngineSnapshot) {
	s.mu.Lock()
	clear(s.lastPush)
	s.mu.Unlock()
	if snap != nil {
		s.stampStreams(snap)
	}
}

// stampStreams starts the idle clock of every stream snap brought in
// (restore, adopt, fault-in).
func (s *Server) stampStreams(snap *core.EngineSnapshot) {
	now := s.now()
	s.mu.Lock()
	for i := range snap.Streams {
		s.lastPush[snap.Streams[i].ID] = now
	}
	s.mu.Unlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.reg.Render(w)
}

// streamStatsRow is GET /v1/streams/{id}/stats's wire form of
// core.StreamStats. Last is re-shaped so an undefined κ_t is absent
// instead of a NaN (which JSON cannot carry), mirroring resultRow.
type streamStatsRow struct {
	Stream     string            `json:"stream"`
	Bags       int               `json:"bags"`
	WindowFill int               `json:"window_fill"`
	WindowSize int               `json:"window_size"`
	Last       *lastPointRow     `json:"last,omitempty"`
	Stages     []core.StageTotal `json:"stages"`
}

// lastPointRow is the last inspection Point in result-row shape.
type lastPointRow struct {
	T     int      `json:"t"`
	Score float64  `json:"score"`
	Lo    float64  `json:"lo"`
	Up    float64  `json:"up"`
	Kappa *float64 `json:"kappa,omitempty"`
	Alarm bool     `json:"alarm,omitempty"`
}

// handleStreamStats serves the live introspection view of one stream:
// bag clock, window fill, last score/interval, cumulative per-stage
// push costs.
func (s *Server) handleStreamStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.state.RLock()
	defer s.state.RUnlock()
	st, ok := s.eng.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("stream %q is not open", id), http.StatusNotFound)
		return
	}
	stats, err := st.Introspect()
	if err != nil {
		// Lost a race with Close.
		http.Error(w, fmt.Sprintf("stream %q is not open", id), http.StatusNotFound)
		return
	}
	row := streamStatsRow{
		Stream:     stats.ID,
		Bags:       stats.Bags,
		WindowFill: stats.WindowFill,
		WindowSize: stats.WindowSize,
		Stages:     stats.Stages,
	}
	if stats.HasLast {
		p := stats.Last
		row.Last = &lastPointRow{T: p.T, Score: p.Score, Lo: p.Interval.Lo, Up: p.Interval.Up, Alarm: p.Alarm}
		if !math.IsNaN(p.Kappa) {
			row.Last.Kappa = &p.Kappa
		}
	}
	s.writeJSON(w, row)
}

// forget drops the idle stamp of a closed stream.
func (s *Server) forget(id string) {
	s.mu.Lock()
	delete(s.lastPush, id)
	s.mu.Unlock()
}

// EvictIdle evicts streams idle for at least ttl and returns the
// evicted ids (sorted). With an oplog the stream's envelope spills to
// its store (a later push faults it back in, bit-identical); otherwise
// its state is discarded. The janitor calls it periodically;
// tests call it directly with a synthetic clock.
//
// The sweep does not hold the exclusive phase lock for its whole
// O(streams) duration — that would stall every push behind the slowest
// sweep. The idle census runs under the bookkeeping mutex only, and the
// candidates are then processed in batches of evictBatch, each under a
// brief exclusive acquisition that RE-CHECKS the candidate's idle
// stamp: a stream pushed between census and batch has a newer stamp and
// is spared, so no stream is evicted out from under an acknowledgement.
func (s *Server) EvictIdle(ttl time.Duration) []string {
	now := s.now()
	cands := s.lruCandidates(func(id string, last time.Time, seen bool) bool {
		if !seen {
			// A stream the server has no stamp for (restored then never
			// pushed, or opened out-of-band): start its idle clock now.
			s.lastPush[id] = now
			return false
		}
		return now.Sub(last) >= ttl
	})
	var evicted []string
	for lo := 0; lo < len(cands); lo += evictBatch {
		hi := min(lo+evictBatch, len(cands))
		s.state.Lock()
		victims := make([]string, 0, hi-lo)
		s.mu.Lock()
		for _, c := range cands[lo:hi] {
			// Spare any stream pushed since the census (newer stamp) or
			// already gone (closed, extracted, spilled by a push's own
			// pool maintenance).
			if last, seen := s.lastPush[c.id]; !seen || !last.Equal(c.last) {
				continue
			}
			if _, open := s.eng.Get(c.id); open {
				victims = append(victims, c.id)
			}
		}
		s.mu.Unlock()
		if s.spill != nil {
			evicted = append(evicted, s.spillStreamsLocked(victims)...)
		} else {
			// Discard mode: the spill store comes with the oplog, so there
			// is no log here either and no close record to write.
			for _, id := range victims {
				if st, ok := s.eng.Get(id); ok {
					st.Close()
				}
				s.forget(id)
			}
			evicted = append(evicted, victims...)
		}
		s.state.Unlock()
		if s.sweepPause != nil && hi < len(cands) {
			s.sweepPause()
		}
	}
	sort.Strings(evicted)
	s.met.evictions.Add(uint64(len(evicted)))
	if len(evicted) > 0 {
		s.log.Info("idle streams evicted",
			"streams", len(evicted),
			"ttl", ttl.Seconds(),
			"spill", s.spill != nil,
			"duration", s.now().Sub(now).Seconds())
	}
	return evicted
}

// lruCand is a resident stream and its last push stamp.
type lruCand struct {
	id   string
	last time.Time
}

// lruCandidates returns the resident streams pick admits, least recently
// pushed first (ties by id) — the order both idle eviction and pool
// spilling shed state in. pick runs under the bookkeeping mutex with
// the stream's stamp; seen is false when the server has none.
func (s *Server) lruCandidates(pick func(id string, last time.Time, seen bool) bool) []lruCand {
	ids := s.eng.StreamIDs()
	cands := make([]lruCand, 0, len(ids))
	s.mu.Lock()
	for _, id := range ids {
		last, seen := s.lastPush[id]
		if pick(id, last, seen) {
			cands = append(cands, lruCand{id, last})
		}
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].last.Equal(cands[j].last) {
			return cands[i].last.Before(cands[j].last)
		}
		return cands[i].id < cands[j].id
	})
	return cands
}

func (s *Server) janitor(every time.Duration) {
	defer close(s.janitorDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.EvictIdle(s.cfg.IdleTTL)
		}
	}
}

// writeJSON writes v as the JSON response body. A failed write means
// the client hung up (or the value is unencodable — a bug): either way
// the failure is logged and counted instead of vanishing.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.met.respWriteErrors.Inc()
		s.log.Warn("response write failed", "error", err)
	}
}
