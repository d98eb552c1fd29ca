// Snapshot/restore: full detector and engine state as a versioned,
// JSON-serializable envelope.
//
// The detector is an online procedure, so a long-lived service must be
// able to checkpoint a stream's state and resume it elsewhere — that is
// how streams rebalance across engine instances. The contract is strict
// bit-identity: a restored detector's future Points (scores AND bootstrap
// intervals) are exactly those the uninterrupted detector would have
// produced, because the snapshot captures everything the output depends
// on — the signature window, the rolling log-EMD matrix, the interval
// history, the bootstrap shard stream positions, and (for randomized
// builders) the builder's RNG position. Everything else in a Detector is
// derived or scratch.
//
// What the snapshot does NOT carry is configuration identity: the
// builder factory and ground distance are code, not data. A snapshot can
// only be restored onto an engine constructed with the same Template,
// Factory and Seed; the envelope records a parameter fingerprint so
// mismatches fail loudly instead of producing silently different scores.
package core

import (
	"fmt"
	"sort"

	"repro/internal/bootstrap"
	"repro/internal/randx"
	"repro/internal/signature"
)

// SnapshotVersion is the envelope schema version. Restore refuses other
// versions: the snapshot encodes internal stream positions whose meaning
// is tied to the code that wrote them.
//
// v2 added the EMD large-path threshold to the fingerprint AND changed
// what a default configuration computes: detectors auto-routed
// signatures of 128 or more centers through the block-pricing solver,
// whose optimal cost can differ from the classic path's in the last
// bits on degenerate instances. A v1 envelope restored here could
// therefore diverge from its source run without any fingerprint field
// disagreeing, so v1 is refused outright — a loud re-run beats a silent
// drift.
//
// v3 changed the large path's pricing from per-row candidate lists to
// per-block candidate queues with a cyclic drain cursor. The pivot
// ORDER differs from v2, so degenerate K≥128 instances can settle on a
// different equally-optimal basis and produce different last bits under
// an unchanged fingerprint — same reasoning as v2, so v2 envelopes are
// refused. Note what did NOT join the fingerprint: the ground-cost
// cache, which a detector attaches iff its builder reports a fixed
// support. The cache is bit-transparent (stored costs are the exact
// floats the ground returned, replayed through the identical comparison
// sequence), so it cannot change any computed value.
//
// v4 replaced the fingerprint's score field with the statistic NAME:
// the detector's per-inspection score is now a registry of named
// Statistic implementations (see statistic.go) of which the old
// two-valued kl/lr score enum covers two, so an int can no longer identify
// which statistic produced the snapshotted intervals — a v4 reader
// handed a v3 envelope would have to GUESS the mapping for any engine
// carrying a registered custom statistic, and a wrong guess silently
// scores the restored window with a different statistic. v3 envelopes
// are refused outright (same doctrine as v1/v2): re-run or re-snapshot
// with a v4 writer. The JSON key is "statistic" and the legacy "score"
// key is gone, so a v3 envelope also cannot masquerade as v4 by version
// edits alone without its fingerprint going visibly blank.
//
// v5 made block pricing the only simplex: every EMD solve, at every
// signature size, now runs the pricing that v2–v4 used only at or above
// the large-path threshold (128 by default), and the threshold and its
// fingerprint field are gone. A v4 envelope from a stream whose
// signatures were smaller than the threshold was scored on the retired
// full-refill simplex, which can settle degenerate instances on a
// different equally-optimal basis, so restoring it here could move the
// last bits of its scores with no fingerprint field disagreeing. v4
// envelopes are refused outright, as v1–v3 were.
//
// v6 moved every checkpointed RNG — the bootstrap shard streams and the
// k-means/k-medoids builder streams — from the stdlib source onto
// xoshiro256++, and an RNG position is now its four state words
// ({"s":[…]}) instead of a (kind, seed, draws) triple that restore
// replayed draw by draw. Restore is therefore a copy, O(1) in stream
// age. The streams themselves changed, so the same seed draws different
// bootstrap weights and k-means++ centers than under v5, and a v5
// position names a stdlib stream this code no longer runs: v5 envelopes
// are refused outright.
const SnapshotVersion = 6

// SignatureState is one window signature in serializable form.
type SignatureState struct {
	Centers [][]float64 `json:"centers"`
	Weights []float64   `json:"weights"`
}

// IntervalState is one inspection time's bootstrap interval, keyed
// explicitly (JSON objects cannot have int keys).
type IntervalState struct {
	T  int     `json:"t"`
	Lo float64 `json:"lo"`
	Up float64 `json:"up"`
	Pt float64 `json:"point"`
}

// DetectorState is the complete serializable state of one Detector.
type DetectorState struct {
	// Count is the number of bags pushed so far.
	Count int `json:"count"`
	// Window holds the retained signatures, oldest first.
	Window []SignatureState `json:"window"`
	// LogD is the rolling log-EMD matrix over the window (row i column j
	// is the clamped log distance between window signatures i and j).
	LogD [][]float64 `json:"log_d"`
	// History holds the recent intervals the κ_t test still consults.
	History []IntervalState `json:"history"`
	// Bootstrap is the position of the detector's persistent bootstrap
	// shard streams.
	Bootstrap bootstrap.StreamState `json:"bootstrap"`
	// BuilderRNG is the builder's RNG position for randomized builders
	// (k-means, k-medoids); nil for stateless builders.
	BuilderRNG *randx.State `json:"builder_rng,omitempty"`
}

// Snapshot captures the detector's complete state. The detector can keep
// running afterwards; the snapshot is a deep copy.
func (d *Detector) Snapshot() (*DetectorState, error) {
	st := &DetectorState{
		Count:     d.count,
		Window:    make([]SignatureState, len(d.window)),
		LogD:      make([][]float64, len(d.logD)),
		Bootstrap: d.est.StreamState(),
	}
	for i, sig := range d.window {
		c := sig.Clone()
		st.Window[i] = SignatureState{Centers: c.Centers, Weights: c.Weights}
	}
	for i, row := range d.logD {
		st.LogD[i] = append([]float64(nil), row...)
	}
	ts := make([]int, 0, len(d.history))
	for t := range d.history {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	for _, t := range ts {
		iv := d.history[t]
		st.History = append(st.History, IntervalState{T: t, Lo: iv.Lo, Up: iv.Up, Pt: iv.Point})
	}
	if snap, ok := d.cfg.Builder.(signature.RNGSnapshotter); ok {
		rs, err := snap.RNGState()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot builder RNG: %w", err)
		}
		st.BuilderRNG = &rs
	}
	return st, nil
}

// RestoreSnapshot rewinds the detector to exactly the state st was
// captured at: window, distance matrix, interval history, bootstrap
// shard streams and builder RNG position. The detector must have been
// constructed with the same configuration (and, for randomized builders,
// a factory-fresh builder on the same seed) as the snapshotted one; from
// here its Points are bit-identical to the uninterrupted detector's.
func (d *Detector) RestoreSnapshot(st *DetectorState) error {
	w := d.WindowSize()
	snap, stateful := d.cfg.Builder.(signature.RNGSnapshotter)
	if err := st.validate(w, stateful); err != nil {
		return err
	}

	// All validation passed; from here on mutate in place. Start from the
	// recycled-clean state so leftover buffers are reused, not leaked.
	d.reset(d.cfg.Builder, d.cfg.Seed)
	d.count = st.Count
	for _, sig := range st.Window {
		d.window = append(d.window, signature.Signature{Centers: sig.Centers, Weights: sig.Weights}.Clone())
	}
	for _, row := range st.LogD {
		r := make([]float64, len(row), w)
		copy(r, row)
		d.logD = append(d.logD, r)
	}
	for _, h := range st.History {
		d.history[h.T] = bootstrap.Interval{Lo: h.Lo, Up: h.Up, Point: h.Pt}
	}
	if err := d.est.RestoreStreams(st.Bootstrap); err != nil {
		return err
	}
	if stateful {
		if err := snap.RestoreRNGState(*st.BuilderRNG); err != nil {
			return fmt.Errorf("core: restore builder RNG: %w", err)
		}
	}
	return nil
}

// validate checks everything RestoreSnapshot needs of st before it
// mutates a detector whose window holds w signatures and whose builder
// is randomized (stateful) or not: the window, matrix and history
// shapes, each signature, and the presence and non-zero state of every
// RNG position. Engine.ValidateSnapshot runs it on every stream, so an
// envelope it accepts restores without error.
func (st *DetectorState) validate(w int, stateful bool) error {
	if len(st.Window) > w {
		return fmt.Errorf("core: snapshot window has %d signatures, detector holds at most %d", len(st.Window), w)
	}
	if len(st.LogD) != len(st.Window) {
		return fmt.Errorf("core: snapshot log-distance matrix has %d rows for %d window signatures", len(st.LogD), len(st.Window))
	}
	for i, row := range st.LogD {
		if len(row) != len(st.Window) {
			return fmt.Errorf("core: snapshot log-distance row %d has %d columns, want %d", i, len(row), len(st.Window))
		}
	}
	if st.Count < len(st.Window) {
		return fmt.Errorf("core: snapshot count %d is smaller than its window (%d signatures)", st.Count, len(st.Window))
	}
	for i, sig := range st.Window {
		s := signature.Signature{Centers: sig.Centers, Weights: sig.Weights}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("core: snapshot window signature %d: %w", i, err)
		}
	}
	for i := 1; i < len(st.History); i++ {
		if st.History[i].T <= st.History[i-1].T {
			return fmt.Errorf("core: snapshot history times must strictly increase, got t=%d after t=%d", st.History[i].T, st.History[i-1].T)
		}
	}
	for k, sh := range st.Bootstrap.Shards {
		if sh == (randx.State{}) {
			return fmt.Errorf("core: snapshot bootstrap shard %d has the all-zero RNG state", k)
		}
	}
	if stateful && st.BuilderRNG == nil {
		return fmt.Errorf("core: snapshot lacks builder RNG state but the detector's builder is randomized — snapshot and detector configurations disagree")
	}
	if !stateful && st.BuilderRNG != nil {
		return fmt.Errorf("core: snapshot carries builder RNG state but the detector's builder is stateless — snapshot and detector configurations disagree")
	}
	if st.BuilderRNG != nil && *st.BuilderRNG == (randx.State{}) {
		return fmt.Errorf("core: snapshot builder has the all-zero RNG state")
	}
	return nil
}

// StreamSnapshot pairs a stream id with its detector state.
type StreamSnapshot struct {
	ID       string        `json:"id"`
	Detector DetectorState `json:"detector"`
}

// EngineSnapshot is the versioned envelope of a whole engine's state:
// one entry per open stream plus the configuration fingerprint restore
// validates against. It is plain data — json.Marshal it to ship engine
// state across processes (Go's JSON float encoding is shortest-exact, so
// the envelope round-trips float64 values bit-for-bit).
type EngineSnapshot struct {
	Version  int   `json:"version"`
	Seed     int64 `json:"seed"`
	Tau      int   `json:"tau"`
	TauPrime int   `json:"tau_prime"`
	// Statistic is the registry NAME of the per-inspection statistic
	// ("kl", "lr", …) — since v4 the statistic's identity in the
	// fingerprint, replacing the v3 "score" int. Both ends of a
	// hand-off must have the named statistic registered.
	Statistic  string  `json:"statistic"`
	Weighting  int     `json:"weighting"`
	RawMass    bool    `json:"raw_mass"`
	LogFloor   float64 `json:"log_floor"`
	Replicates int     `json:"replicates"`
	Alpha      float64 `json:"alpha"`
	BuilderTag string  `json:"builder_tag,omitempty"`
	// Mark is the engine's push mark (Engine.Mark) at capture time:
	// every push the envelope covers was logged with a mark no larger.
	// The oplog checks it before compacting segments behind a
	// checkpoint.
	Mark uint64 `json:"mark,omitempty"`
	// Partial marks an envelope that carries a SUBSET of the source
	// engine's streams (a migration extract, or a SplitByStream slice
	// such as a spill file). Partial envelopes merge into a live engine
	// via RestoreStreams; Restore refuses them, because treating a
	// subset as the whole state would silently drop every other stream.
	Partial bool             `json:"partial,omitempty"`
	Streams []StreamSnapshot `json:"streams"`
}

// SplitByStream slices the envelope into one single-stream envelope per
// stream, each carrying the full configuration fingerprint (and the
// source Mark) so it can be validated and restored independently — the
// unit of routing when a fleet rebalances streams one at a time. The
// receiver is not modified; the per-stream envelopes share the
// receiver's DetectorState values (treat them as read-only, like the
// envelope itself).
func (s *EngineSnapshot) SplitByStream() []EngineSnapshot {
	out := make([]EngineSnapshot, len(s.Streams))
	for i := range s.Streams {
		env := *s
		env.Partial = true
		env.Streams = []StreamSnapshot{s.Streams[i]}
		out[i] = env
	}
	return out
}

// fingerprint returns the envelope carrying cfg's restore-validated
// parameters and no streams.
func (e *Engine) fingerprint() EngineSnapshot {
	t := e.cfg.Template
	return EngineSnapshot{
		Version:    SnapshotVersion,
		Seed:       e.cfg.Seed,
		Tau:        t.Tau,
		TauPrime:   t.TauPrime,
		Statistic:  t.StatisticName(),
		Weighting:  int(t.Weighting),
		RawMass:    t.RawMass,
		LogFloor:   t.LogFloor,
		Replicates: t.Bootstrap.Replicates,
		Alpha:      t.Bootstrap.Alpha,
		BuilderTag: e.cfg.BuilderTag,
	}
}

// ValidateSnapshot checks that snap could be restored onto this engine —
// the schema version is readable, the configuration fingerprint
// (seed, τ, τ′, statistic name, weighting, raw-mass, log-floor,
// replicates, α, builder tag) matches, every stream id is non-empty and
// named once, and every stream's detector state passes the checks
// Detector.RestoreSnapshot makes before it mutates anything — without
// touching any state. An envelope it accepts restores onto an engine
// without any of its streams open. A server front-end calls it BEFORE
// tearing down live streams, so a rejected envelope leaves the
// receiving engine exactly as it was.
func (e *Engine) ValidateSnapshot(snap *EngineSnapshot) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this engine reads version %d", snap.Version, SnapshotVersion)
	}
	want := e.fingerprint()
	mismatch := snap.Seed != want.Seed || snap.Tau != want.Tau || snap.TauPrime != want.TauPrime ||
		snap.Statistic != want.Statistic || snap.Weighting != want.Weighting || snap.RawMass != want.RawMass ||
		snap.LogFloor != want.LogFloor || snap.Replicates != want.Replicates || snap.Alpha != want.Alpha ||
		snap.BuilderTag != want.BuilderTag
	if mismatch {
		got := *snap
		got.Streams = nil
		want.Streams = nil
		return fmt.Errorf("core: snapshot configuration %+v does not match engine configuration %+v", got, want)
	}
	w := e.cfg.Template.Tau + e.cfg.Template.TauPrime
	seen := make(map[string]bool, len(snap.Streams))
	for i := range snap.Streams {
		id := snap.Streams[i].ID
		if id == "" {
			return fmt.Errorf("core: snapshot stream %d has an empty id", i)
		}
		if seen[id] {
			return fmt.Errorf("core: snapshot names stream %q twice", id)
		}
		seen[id] = true
		if err := snap.Streams[i].Detector.validate(w, e.statefulBuilder); err != nil {
			return fmt.Errorf("core: snapshot stream %q: %w", id, err)
		}
	}
	return nil
}

// Snapshot serializes the full engine state: every open stream's
// detector, in stream-id order. The caller must have quiesced the engine
// — no pushes may be in flight (a server front-end holds its exclusive
// state lock around this; each stream's own lock is still taken so a
// violated contract corrupts nothing, though it would make WHICH state
// got captured a race).
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	return e.snapshotWhere(nil, false)
}

// SnapshotStreams serializes just the named streams as a partial
// envelope — the capture half of a live migration. Every id must be an
// open stream (unknown ids error before anything is captured); the
// streams stay open on this engine, so the caller that is moving them
// closes them once the envelope is safely shipped.
func (e *Engine) SnapshotStreams(ids ...string) (*EngineSnapshot, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: SnapshotStreams requires at least one stream id")
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if want[id] {
			return nil, fmt.Errorf("core: SnapshotStreams: duplicate stream id %q", id)
		}
		want[id] = true
	}
	e.mu.Lock()
	for id := range want {
		if _, ok := e.streams[id]; !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("core: SnapshotStreams: stream %q is not open", id)
		}
	}
	e.mu.Unlock()
	return e.snapshotWhere(func(id string) bool { return want[id] }, true)
}

// snapshotWhere captures the streams keep admits (nil keeps all) into an
// envelope. The engine must be quiesced by the caller, as with Snapshot.
func (e *Engine) snapshotWhere(keep func(id string) bool, partial bool) (*EngineSnapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("core: engine is shut down")
	}
	snap := e.fingerprint()
	snap.Mark = e.mark.Load()
	snap.Partial = partial
	ids := make([]string, 0, len(e.streams))
	for id := range e.streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := e.streams[id]
		st.mu.Lock()
		det := st.det
		var ds *DetectorState
		var err error
		if det != nil && (keep == nil || keep(id)) {
			ds, err = det.Snapshot()
		}
		st.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot stream %q: %w", id, err)
		}
		if ds != nil {
			snap.Streams = append(snap.Streams, StreamSnapshot{ID: id, Detector: *ds})
		}
	}
	return &snap, nil
}

// Restore reconstructs the snapshotted streams on this engine: each
// stream is opened (recycling pooled detectors as usual) and its
// detector rewound to the snapshot state, after which every stream is
// bit-identical going forward to one that never stopped. The envelope
// must be complete (not Partial) and the engine must have no open
// streams — restore replaces state, it does not merge; RestoreStreams
// merges. Its configuration must match the snapshot fingerprint
// (ValidateSnapshot); the builder factory and ground distance are code
// and cannot be fingerprinted directly, so deployments that build them
// from configuration should describe that configuration in
// EngineConfig.BuilderTag — engines with differing tags refuse each
// other's snapshots instead of silently diverging. A failed Restore
// leaves the engine with no open streams.
//
// Cost: each stream's restore copies its window, matrix and history and
// the state words of its RNG streams, so it is proportional to the
// envelope's size and independent of how many bags the stream has seen.
func (e *Engine) Restore(snap *EngineSnapshot) error {
	if snap.Partial {
		return fmt.Errorf("core: envelope is partial (an extracted or split slice); Restore replaces ALL state — use RestoreStreams to merge it")
	}
	if n := e.Len(); n != 0 {
		return fmt.Errorf("core: restore requires an engine with no open streams, have %d", n)
	}
	return e.RestoreStreams(snap)
}

// RestoreStreams merges the envelope's streams into this engine — the
// receiving half of a live migration, and the path Restore and a spill
// fault-in take. The fingerprint must match exactly as for Restore, but
// the engine keeps its other open streams; each restored stream must NOT
// already be open here (a migration that raced a duplicate delivery
// fails loudly instead of silently rewinding a live stream). On any
// error the streams this call opened are closed again, so a refused
// merge leaves the engine exactly as it was. Quiescence contract is
// Snapshot's: no pushes in flight.
func (e *Engine) RestoreStreams(snap *EngineSnapshot) error {
	if err := e.ValidateSnapshot(snap); err != nil {
		return err
	}
	for i := range snap.Streams {
		id := snap.Streams[i].ID
		if _, open := e.Get(id); open {
			return fmt.Errorf("core: RestoreStreams: stream %q is already open on this engine", id)
		}
	}
	streams := make([]*Stream, 0, len(snap.Streams))
	rollback := func() {
		for _, st := range streams {
			st.Close()
		}
	}
	for i := range snap.Streams {
		id := snap.Streams[i].ID
		st, err := e.Open(id)
		if err == nil {
			streams = append(streams, st)
			st.mu.Lock()
			err = st.det.RestoreSnapshot(&snap.Streams[i].Detector)
			st.mu.Unlock()
		}
		if err != nil {
			rollback()
			return fmt.Errorf("core: restore stream %q: %w", id, err)
		}
	}
	return nil
}
