package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bag"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/signature"
)

// builderSeedTag keys the derivation of a stream's builder seed from its
// stream seed. It is negative so it can never collide with the bootstrap
// shard streams, which are derived from the same stream seed with
// non-negative shard indices.
const builderSeedTag = -1

// EngineConfig parameterizes an Engine.
type EngineConfig struct {
	// Template holds the per-stream detector parameters (Tau, TauPrime,
	// Statistic, Weighting, Ground, Bootstrap, LogFloor, RawMass). Its
	// Builder field must be nil — per-stream builders come from Factory —
	// and its Seed field is ignored in favour of the engine Seed. Each
	// stream's bootstrap runs serially; the engine parallelizes across
	// streams.
	Template Config
	// Factory builds each stream's signature builder from the stream's
	// derived seed. Required.
	Factory signature.BuilderFactory
	// Seed is the engine base seed from which every per-stream seed is
	// split.
	Seed int64
	// BuilderTag optionally names the Factory/Ground configuration as an
	// opaque string (e.g. "hist(lo=-8,hi=12,bins=30)"). Factories are
	// code, so the snapshot fingerprint cannot derive their parameters;
	// a tag lets deployments that configure factories from flags carry
	// those parameters into the envelope, making a restore onto an
	// engine with different builder parameters fail loudly instead of
	// silently diverging. Engines with differing tags refuse each
	// other's snapshots.
	BuilderTag string
	// Workers bounds the goroutines PushBatch fans streams across;
	// 0 selects GOMAXPROCS. Worker count never affects output.
	Workers int
}

// Engine is the multi-stream front-end over the single-stream Detector.
//
// The paper's detector is inherently per-stream, but a service monitors
// many independent streams at once (one per user, sensor, or service).
// An Engine owns the resources those streams share — a pool of recycled
// detectors (each carrying its warm EMD solver and bootstrap scratch)
// and a bounded worker group for batch pushes — and hands out
// lightweight Stream handles. Determinism is preserved per stream: every
// stream's detector is seeded with randx.SplitSeedString(engineSeed,
// streamID) and gets its own factory-built signature builder, so its
// output is bit-identical to a standalone Detector constructed from
// StreamConfig(streamID), independent of batch composition, worker
// count, or which pooled detector happens to serve it.
//
// Create with NewEngine; obtain per-stream handles with Open or feed
// many streams at once with PushBatch.
//
// Concurrency: Open, Close, Get, Len, Stats and Shutdown are safe for
// concurrent use, and each stream guards its detector with its own lock,
// so a Close racing a Push can never hand a detector to the pool while it
// is mid-push. Pushes to the SAME stream are serialized by that lock but
// their ORDER is then up to goroutine scheduling — for deterministic
// output, callers must still serialize pushes per stream: concurrent
// PushBatch calls (or a PushBatch concurrent with Stream.Push) only have
// reproducible results when they touch disjoint stream sets. Within one
// PushBatch call the engine itself serializes all bags of a stream in
// input order.
type Engine struct {
	cfg EngineConfig

	// mark orders applied push groups: each stream group of a
	// PushBatchFn call takes the next value under its stream's lock and
	// hands it to the apply hook, so oplog records carry marks that
	// increase in apply order. An envelope's Mark is the value at capture
	// time, which the oplog's compaction cross-checks against the marks
	// of the segments it deletes.
	mark atomic.Uint64

	// statefulBuilder reports whether Factory builds randomized builders
	// (signature.RNGSnapshotter), whose snapshots must carry RNG state.
	statefulBuilder bool

	mu       sync.Mutex
	streams  map[string]*Stream
	free     []*Detector // closed streams' detectors, warm and ready to recycle
	closed   bool
	inflight sync.WaitGroup // running PushBatch calls, drained by Shutdown
	observer obs.StageObserver
}

// Mark returns the mark of the last applied push group. It is
// monotonic for the life of the engine; a caller that logs a record
// outside PushBatchFn (a close) stamps it with this value.
func (e *Engine) Mark() uint64 { return e.mark.Load() }

// StatisticName returns the registry name of the per-inspection
// statistic every stream of this engine computes — the same identity
// the snapshot fingerprint carries. Server front-ends surface it on
// /metrics as the bagcpd_engine_info gauge.
func (e *Engine) StatisticName() string { return e.cfg.Template.StatisticName() }

// Instrument resolves a stage observer against the registry (labeled
// with the engine's statistic name) and attaches it to every current
// and future stream's detector, pooled detectors included, so per-stage
// push durations and solver work land on bagcpd_push_stage_seconds and
// the bagcpd_push_solver_*_total counters. Instrumentation never
// changes detector output; it only adds stage timing to pushes.
// Restored and recycled streams inherit the observer because every
// stream creation path goes through Open.
func (e *Engine) Instrument(r *obs.Registry) {
	o := r.PushStageObserver(e.StatisticName())
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observer = o
	// Taking st.mu under e.mu follows closeAllLocked's lock order.
	for _, st := range e.streams {
		st.mu.Lock()
		if st.det != nil {
			st.det.SetObserver(o)
		}
		st.mu.Unlock()
	}
	for _, det := range e.free {
		det.SetObserver(o)
	}
}

// NewEngine validates cfg and returns an Engine with no open streams.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("core: EngineConfig.Factory is required")
	}
	if cfg.Template.Builder != nil {
		return nil, fmt.Errorf("core: EngineConfig.Template.Builder must be nil; per-stream builders come from Factory")
	}
	if err := cfg.Template.validateCommon(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	_, stateful := cfg.Factory(0).(signature.RNGSnapshotter)
	return &Engine{cfg: cfg, streams: make(map[string]*Stream), statefulBuilder: stateful}, nil
}

// StreamConfig returns the exact detector Config the engine uses for
// stream id: the template with Seed = SplitSeedString(engineSeed, id)
// and a fresh factory-built Builder seeded from that stream seed. A
// standalone New(eng.StreamConfig(id)) detector fed the same bags
// produces bit-identical Points to the engine's stream — this is the
// engine's reproducibility contract, and the form in which it is tested.
func (e *Engine) StreamConfig(id string) Config {
	seed := randx.SplitSeedString(e.cfg.Seed, id)
	cfg := e.cfg.Template
	cfg.Seed = seed
	cfg.Builder = e.cfg.Factory(randx.SplitSeed(seed, builderSeedTag))
	return cfg
}

// Open returns the handle for stream id, creating the stream on first
// use. Opening recycles a pooled detector when one is free (rebinding it
// to the stream's seed and builder); otherwise it constructs one. Open
// is idempotent: a second Open of a live id returns the same handle.
func (e *Engine) Open(id string) (*Stream, error) {
	if id == "" {
		return nil, fmt.Errorf("core: stream id must be non-empty")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("core: engine is shut down")
	}
	if st, ok := e.streams[id]; ok {
		return st, nil
	}
	cfg := e.StreamConfig(id)
	if cfg.Builder == nil {
		// Checked on both paths: the recycle branch below bypasses New's
		// validation, and a factory returning nil must fail here, not as a
		// nil dereference on the stream's first Push.
		return nil, fmt.Errorf("core: builder factory returned nil for stream %q", id)
	}
	var det *Detector
	if n := len(e.free); n > 0 {
		det = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		det.reset(cfg.Builder, cfg.Seed)
	} else {
		var err error
		det, err = New(cfg)
		if err != nil {
			return nil, err
		}
	}
	det.SetObserver(e.observer)
	st := &Stream{eng: e, id: id, det: det}
	e.streams[id] = st
	return st, nil
}

// Len returns the number of open streams.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.streams)
}

// Get returns the handle for stream id if it is currently open, without
// creating it (Open is create-on-use; Get is the read-only lookup a
// server front-end needs for lifecycle endpoints).
func (e *Engine) Get(id string) (*Stream, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.streams[id]
	return st, ok
}

// StreamIDs returns the ids of all open streams, sorted.
func (e *Engine) StreamIDs() []string {
	e.mu.Lock()
	ids := make([]string, 0, len(e.streams))
	for id := range e.streams {
		ids = append(ids, id)
	}
	e.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Stats is a point-in-time census of the engine's resources.
type Stats struct {
	// Open is the number of open streams.
	Open int
	// PooledFree is the number of closed streams' warm detectors waiting
	// in the recycle pool.
	PooledFree int
}

// Stats returns the engine's current resource census.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{Open: len(e.streams), PooledFree: len(e.free)}
}

// CloseAll closes every open stream, recycling all detectors into the
// pool. The engine stays usable — a later Open starts streams from
// scratch. It is the "make room for a restored state" primitive: callers
// must not have pushes in flight.
func (e *Engine) CloseAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closeAllLocked()
}

func (e *Engine) closeAllLocked() {
	for id, st := range e.streams {
		st.mu.Lock()
		if st.det != nil {
			e.free = append(e.free, st.det)
			st.det = nil
		}
		st.mu.Unlock()
		delete(e.streams, id)
	}
}

// Shutdown tears the whole engine down: it refuses new Opens, waits for
// in-flight PushBatch calls to drain, closes every stream and returns all
// detectors to the pool. Pushes racing the shutdown fail per-stream with
// a closed-stream error once their stream is torn down; pushes already
// holding a stream's lock complete first. Shutdown is idempotent, and
// every engine entry point except Len/Get/Stats errors afterwards.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()

	// New PushBatch calls are refused from here on (Open checks closed);
	// wait for the ones already running.
	e.inflight.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.closeAllLocked()
}

// Stream is a handle on one detector stream owned by an Engine. Its own
// lock makes Push/Close races memory-safe, but the OUTPUT of concurrent
// pushes to one stream depends on scheduling order — serialize pushes per
// stream for deterministic results (see Engine).
type Stream struct {
	eng *Engine
	id  string

	mu  sync.Mutex
	det *Detector
}

// ID returns the stream identifier passed to Open.
func (s *Stream) ID() string { return s.id }

// Push feeds the stream's next bag, exactly like Detector.Push. It
// returns an error after Close.
func (s *Stream) Push(b bag.Bag) (*Point, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.det == nil {
		return nil, fmt.Errorf("core: stream %q is closed", s.id)
	}
	return s.det.Push(b)
}

// Seq returns the number of bags pushed so far — the time index the
// stream's next bag will get in sequential-clock wire protocols. It
// returns 0 after Close.
func (s *Stream) Seq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.det == nil {
		return 0
	}
	return s.det.Count()
}

// StreamStats is Stream.Introspect's point-in-time view of one stream:
// the bag clock, window occupancy, the last inspection's outcome, and
// the per-stage cumulative push costs (populated while the engine is
// instrumented).
type StreamStats struct {
	// ID is the stream identifier.
	ID string `json:"stream"`
	// Bags is the bag clock: bags pushed so far (the next bag's index).
	Bags int `json:"bags"`
	// WindowFill is the number of signatures currently retained,
	// saturating at WindowSize once the stream starts scoring.
	WindowFill int `json:"window_fill"`
	// WindowSize is τ+τ′.
	WindowSize int `json:"window_size"`
	// HasLast reports whether Last holds a real inspection Point (false
	// until the window first fills).
	HasLast bool `json:"has_last"`
	// Last is the most recent inspection Point.
	Last Point `json:"last,omitempty"`
	// Stages is the cumulative per-stage push cost since the stream
	// opened. All zeros while the engine is uninstrumented.
	Stages []StageTotal `json:"stages"`
}

// Introspect returns the stream's live stats. It errors after Close.
// The call takes the stream lock, so it serializes with pushes; it does
// no scoring work of its own.
func (s *Stream) Introspect() (StreamStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.det == nil {
		return StreamStats{}, fmt.Errorf("core: stream %q is closed", s.id)
	}
	totals := s.det.StageTotals()
	st := StreamStats{
		ID:         s.id,
		Bags:       s.det.Count(),
		WindowFill: len(s.det.window),
		WindowSize: s.det.WindowSize(),
		Stages:     totals[:],
	}
	st.Last, st.HasLast = s.det.Last()
	return st, nil
}

// Close releases the stream and recycles its detector (window buffers,
// EMD solver and bootstrap scratch) into the engine's pool for the next
// Open. Close is idempotent and safe against every interleaving with
// Open and Push on the same id: the detector is handed to the pool
// exactly once, never while a Push holds it, and a stale handle kept
// across a Close+reopen cannot tear down (or double-free into the pool)
// the id's CURRENT stream — only the handle the engine registered.
func (s *Stream) Close() {
	e := s.eng
	// Deregister first, under the engine lock alone. Waiting for the
	// stream lock happens OUTSIDE e.mu: a push group can hold s.mu for a
	// long batch, and blocking the whole engine (every Open/Get/PushBatch
	// start) on one stream's in-flight work would stall unrelated
	// streams. Deregister only if this handle is still the id's
	// registered stream; after a Close+reopen race the map may hold a
	// NEWER stream for the same id, which must survive a stale handle's
	// Close.
	e.mu.Lock()
	if cur, ok := e.streams[s.id]; ok && cur == s {
		delete(e.streams, s.id)
	}
	e.mu.Unlock()
	// Wait for any in-flight push on THIS handle, then take the detector
	// exactly once (concurrent Closes race here; only one sees non-nil).
	s.mu.Lock()
	det := s.det
	s.det = nil
	s.mu.Unlock()
	if det == nil {
		return
	}
	e.mu.Lock()
	e.free = append(e.free, det)
	e.mu.Unlock()
}

// StreamBag addresses one bag to one stream for PushBatch.
type StreamBag struct {
	StreamID string
	Bag      bag.Bag
}

// StreamResult is PushBatch's per-bag outcome, parallel to the input
// batch. Point is nil while the stream's window is still filling (just
// like Detector.Push) and on error.
type StreamResult struct {
	StreamID string
	Point    *Point
	Err      error
}

// PushBatch feeds every bag of batch to its stream, fanning independent
// streams across the engine's worker group while preserving, for each
// stream, the input order of its bags. Streams are opened on first use.
// The result slice is parallel to batch; each stream's results are
// bit-identical to pushing the same bags through that stream one by one,
// regardless of Workers or how the batch interleaves streams.
//
// Errors stay per-stream: a failing bag records its error, the stream's
// later bags in this batch are skipped (their Err wraps the failure),
// and all other streams proceed. The returned error is the first
// per-bag error in batch order, nil if every bag succeeded.
//
// The engine owns each stream's bag clock: under the stream's lock,
// batch[i].Bag.T is overwritten with the stream's count at the moment
// the bag is pushed. An applied bag therefore carries the index it was
// applied at, and a failed or skipped bag carries the index a retry
// would take. Bags of a stream that is closed, or cannot be opened,
// under the batch keep the T they came with. Concurrent batches on one
// stream get distinct, gap-free indices in apply order.
func (e *Engine) PushBatch(batch []StreamBag) ([]StreamResult, error) {
	return e.PushBatchFn(batch, nil)
}

// PushBatchFn is PushBatch with a mutation hook: onApply (when non-nil)
// is invoked once per SUCCESSFULLY applied bag, with the bag's batch
// index and the engine mark its stream group took (see Engine.mark), while
// the stream's lock is still held; batch[i].Bag.T is then the index the
// bag was applied at. That lock makes the hook's call
// order per stream exactly the apply order — across concurrent batches
// too — which is what a write-ahead log needs to record a replayable
// history (the server enqueues each applied row's oplog record here).
// The hook must be fast and must not call back into the engine or the
// stream; it runs on the push fan-out workers.
func (e *Engine) PushBatchFn(batch []StreamBag, onApply func(i int, mark uint64)) ([]StreamResult, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("core: engine is shut down")
	}
	// Registered under the engine lock so Shutdown's closed flag and its
	// inflight.Wait can never miss a running batch.
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()

	results := make([]StreamResult, len(batch))

	// Group the batch by stream, preserving first-appearance order and
	// per-stream bag order. Streams are opened (or created) up front on
	// the calling goroutine; the fan-out below never touches the engine
	// lock.
	type group struct {
		st   *Stream
		idxs []int
	}
	index := make(map[string]int)
	var groups []group
	for i, sb := range batch {
		results[i].StreamID = sb.StreamID
		gi, ok := index[sb.StreamID]
		if !ok {
			st, err := e.Open(sb.StreamID)
			if err != nil {
				index[sb.StreamID] = -1
				results[i].Err = err
				continue
			}
			gi = len(groups)
			groups = append(groups, group{st: st})
			index[sb.StreamID] = gi
		}
		if gi < 0 {
			results[i].Err = fmt.Errorf("core: stream %q could not be opened", sb.StreamID)
			continue
		}
		groups[gi].idxs = append(groups[gi].idxs, i)
	}

	run := func(g *group) {
		// One lock hold for the whole group: the stream's bags are pushed
		// back-to-back without re-acquiring, and a Close racing the batch
		// either waits for the group or makes every bag fail closed.
		g.st.mu.Lock()
		defer g.st.mu.Unlock()
		var failed error
		if g.st.det == nil {
			failed = fmt.Errorf("core: stream %q is closed", g.st.id)
			for _, i := range g.idxs {
				results[i].Err = failed
			}
			return
		}
		mark := e.mark.Add(1)
		for _, i := range g.idxs {
			batch[i].Bag.T = g.st.det.Count()
			if failed != nil {
				results[i].Err = fmt.Errorf("core: stream %q: bag skipped after earlier error in batch: %w", g.st.id, failed)
				continue
			}
			p, err := g.st.det.Push(batch[i].Bag)
			results[i].Point = p
			if err != nil {
				results[i].Err = err
				failed = err
				continue
			}
			if onApply != nil {
				onApply(i, mark)
			}
		}
	}

	workers := e.cfg.Workers
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for gi := range groups {
			run(&groups[gi])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					gi := int(next.Add(1)) - 1
					if gi >= len(groups) {
						return
					}
					run(&groups[gi])
				}
			}()
		}
		wg.Wait()
	}

	var firstErr error
	for i := range results {
		if results[i].Err != nil {
			firstErr = results[i].Err
			break
		}
	}
	return results, firstErr
}
