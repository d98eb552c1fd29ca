// Package repro is a Go implementation of "Change-Point Detection in a
// Sequence of Bags-of-Data" (Koshijima, Hino & Murata, IEEE TKDE 27(10),
// 2015). It detects change points in time series whose observation at
// each step is a BAG — a variable-size collection of d-dimensional
// vectors — rather than a single vector.
//
// The pipeline (paper §3-§4):
//
//  1. each bag is summarized as a signature {(center, mass)} by k-means,
//     k-medoids, online quantization, or histogram binning;
//  2. signatures are embedded in a metric space with the Earth Mover's
//     Distance, computed exactly by a transportation simplex;
//  3. a change-point score compares the reference window (τ bags before
//     the inspection point) with the test window (τ′ bags from it):
//     the log-likelihood-ratio score (Eq. 16) or the symmetrized-KL
//     score (Eq. 17), both built from distance-based information
//     estimators for weighted data (Hino & Murata 2013);
//  4. a Bayesian bootstrap resamples the signature weights to attach a
//     confidence interval to every score, and an alarm is raised only
//     when the interval at t clears the interval at t−τ′ (Eq. 18-20) —
//     an adaptive threshold that suppresses false alarms under noise
//     and drift.
//
// Quick start — an Engine owns shared resources (pooled detectors with
// their warm EMD/bootstrap scratch, a bounded worker group) and hands
// out per-stream handles:
//
//	eng, err := repro.NewEngine(
//		repro.WithTau(5), repro.WithTauPrime(5),
//		repro.WithBuilderFactory(repro.HistogramFactory(-10, 10, 40)),
//		repro.WithSeed(1),
//	)
//	...
//	st, err := eng.Open("sensor-42")
//	for t, values := range stream {
//		point, err := st.Push(repro.BagFromScalars(t, values))
//		if point != nil && point.Alarm {
//			// significant change at time point.T
//		}
//	}
//
// Many concurrent streams go through the batch entry point, which fans
// independent streams across workers while keeping every stream's output
// bit-identical to a standalone detector (each stream's RNG streams are
// split deterministically from the engine seed and its id):
//
//	results, err := eng.PushBatch([]repro.StreamBag{
//		{StreamID: "user-1", Bag: bag1},
//		{StreamID: "user-2", Bag: bag2},
//		...
//	})
//
// Randomized signature builders are supplied as factories
// (KMeansFactory, KMedoidsFactory, …) rather than instances, so every
// stream gets its own deterministic builder instead of aliasing shared
// RNG state. The single-stream Detector API (NewDetector, Run) remains
// for simple pipelines and experiment drivers.
//
// The experiment drivers behind every figure of the paper live in
// cmd/repro; see EXPERIMENTS.md for the reproduction log.
package repro

import (
	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/emd"
	"repro/internal/eval"
	"repro/internal/featsel"
	"repro/internal/innovate"
	"repro/internal/mds"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/signature"
)

// Bag is the observation at one time step: a set of d-dimensional points.
type Bag = bag.Bag

// Sequence is an ordered series of bags.
type Sequence = bag.Sequence

// NewBag constructs a bag at time t; it panics on ragged points.
func NewBag(t int, points [][]float64) Bag { return bag.New(t, points) }

// BagFromScalars builds a 1-D bag from a plain value slice.
func BagFromScalars(t int, values []float64) Bag { return bag.FromScalars(t, values) }

// Signature is a weighted point set summarizing one bag (§3.1).
type Signature = signature.Signature

// Builder converts bags into signatures.
type Builder = signature.Builder

// BuilderFactory constructs a fresh Builder for a given seed. Factories
// are the stream-safe way to configure randomized signature builders:
// every detector stream gets its own builder with its own RNG, and two
// factory calls with the same seed yield identical behaviour. See the
// determinism contract on Builder in internal/signature.
type BuilderFactory = signature.BuilderFactory

// KMeansFactory returns a factory of independently seeded k-means
// builders (k-means++ seeding, at most k clusters per bag).
func KMeansFactory(k int) BuilderFactory {
	return signature.KMeansFactory(k, cluster.Config{})
}

// KMedoidsFactory returns a factory of independently seeded k-medoids
// builders (medoids are data points; robust to outliers).
func KMedoidsFactory(k int) BuilderFactory {
	return signature.KMedoidsFactory(k, cluster.Config{})
}

// OnlineFactory returns a factory of online (LVQ-style) quantizer
// builders; the builder is deterministic, so the seed is ignored.
func OnlineFactory(k int, rate float64) BuilderFactory {
	return signature.OnlineFactory(k, rate)
}

// HistogramFactory returns a factory for the 1-D histogram builder over
// [lo, hi) with the given bin count (deterministic; the seed is
// ignored). Invalid parameters panic at factory construction.
func HistogramFactory(lo, hi float64, bins int) BuilderFactory {
	return signature.HistogramFactory(lo, hi, bins)
}

// GridFactory returns a factory for the d-D grid builder with bins cells
// per dimension (deterministic; the seed is ignored).
func GridFactory(lo, hi []float64, bins int) BuilderFactory {
	return signature.GridFactory(lo, hi, bins)
}

// NewOnlineBuilder quantizes each bag in one pass with competitive
// learning (LVQ-style); suitable for very large bags.
func NewOnlineBuilder(k int, rate float64) Builder {
	return signature.NewOnlineBuilder(k, rate)
}

// NewHistogramBuilder bins 1-D bags into fixed-width bins over [lo, hi) —
// the paper's "very simple way to make signatures". Out-of-range points
// clamp into the boundary bins.
func NewHistogramBuilder(lo, hi float64, bins int) Builder {
	return signature.NewHistogramBuilder(lo, hi, bins)
}

// NewGridBuilder bins d-D bags into a fixed-width grid with `bins` cells
// per dimension.
func NewGridBuilder(lo, hi []float64, bins int) Builder {
	return signature.NewGridBuilder(lo, hi, bins)
}

// Ground is a ground distance between signature centers for EMD.
type Ground = emd.Ground

// Predefined ground distances.
var (
	// Euclidean is the L2 ground distance (the default).
	Euclidean = emd.Euclidean
	// Manhattan is the L1 ground distance.
	Manhattan = emd.Manhattan
	// Chebyshev is the L∞ ground distance.
	Chebyshev = emd.Chebyshev
)

// EMD returns the Earth Mover's Distance between two signatures under
// ground distance g (nil selects Euclidean with an exact 1-D fast path).
// Different total masses trigger the paper's partial matching (Eq. 7-12).
func EMD(s, t Signature, g Ground) (float64, error) { return emd.Distance(s, t, g) }

// Statistic is a named per-inspection change-point score: it validates
// configs and yields the bootstrap replicate closure for a detector
// window. Built-ins are "kl" (Eq. 17), "lr" (Eq. 16) and "clr"
// (centered-log-ratio compositional preprocessing over the KL score);
// RegisterStatistic adds custom ones.
type Statistic = core.Statistic

// BagPreprocessor is the optional Statistic extension for statistics
// that transform bags before signature construction (the "clr"
// statistic implements it).
type BagPreprocessor = core.BagPreprocessor

// RegisterStatistic adds a custom statistic to the process-wide
// registry under its Name(). The name then works everywhere a built-in
// does — WithStatistic, Config.Statistic, the bagcpd -score flag — and
// joins the engine snapshot fingerprint, so both ends of a snapshot
// hand-off must register it.
func RegisterStatistic(s Statistic) error { return core.RegisterStatistic(s) }

// LookupStatistic returns the registered statistic for name.
func LookupStatistic(name string) (Statistic, bool) { return core.LookupStatistic(name) }

// StatisticNames returns every registered statistic name, sorted.
func StatisticNames() []string { return core.StatisticNames() }

// Weighting selects the base weights of the window signatures.
type Weighting = core.Weighting

// Base weight schemes (Eq. 15).
const (
	// WeightUniform weights every signature equally (paper §5 default).
	WeightUniform = core.WeightUniform
	// WeightDiscounted favours signatures near the inspection point.
	WeightDiscounted = core.WeightDiscounted
)

// Config parameterizes a Detector. Tau, TauPrime and Builder are
// required; everything else has sensible defaults.
type Config = core.Config

// BootstrapConfig controls the Bayesian-bootstrap confidence intervals:
// Replicates (default 1000) and Alpha (default 0.05).
type BootstrapConfig = bootstrap.Config

// Interval is a bootstrap confidence interval with its point estimate.
type Interval = bootstrap.Interval

// Point is the detector output at one inspection time.
type Point = core.Point

// Detector is the streaming change-point detector. Not safe for
// concurrent use.
type Detector = core.Detector

// NewDetector validates cfg and returns a ready Detector.
func NewDetector(cfg Config) (*Detector, error) { return core.New(cfg) }

// Run processes an entire sequence through a fresh detector.
func Run(cfg Config, seq Sequence) ([]Point, error) { return core.Run(cfg, seq) }

// --- Multi-stream engine -----------------------------------------------------

// Engine manages many concurrent detector streams over a pool of shared,
// recycled resources. See NewEngine and the package quick start.
type Engine = core.Engine

// Stream is a handle on one detector stream owned by an Engine.
type Stream = core.Stream

// StreamBag addresses one bag to one stream for Engine.PushBatch.
type StreamBag = core.StreamBag

// StreamResult is Engine.PushBatch's per-bag outcome.
type StreamResult = core.StreamResult

// An Option configures an Engine at construction.
type Option struct {
	apply func(cfg *core.EngineConfig)
}

// WithTau sets the reference window length τ (required, >= 1).
func WithTau(tau int) Option {
	return Option{func(c *core.EngineConfig) { c.Template.Tau = tau }}
}

// WithTauPrime sets the test window length τ′ (required, >= 1; >= 2 for
// the "lr" statistic).
func WithTauPrime(tauPrime int) Option {
	return Option{func(c *core.EngineConfig) { c.Template.TauPrime = tauPrime }}
}

// WithStatistic selects the per-inspection change-point statistic by
// registry name: "kl" (the default), "lr", "clr", or any name registered
// with RegisterStatistic. The name joins the engine snapshot fingerprint, so
// engines that disagree on it refuse each other's snapshots.
func WithStatistic(name string) Option {
	return Option{func(c *core.EngineConfig) { c.Template.Statistic = name }}
}

// WithWeighting selects the base weights of the window signatures
// (default WeightUniform).
func WithWeighting(w Weighting) Option {
	return Option{func(c *core.EngineConfig) { c.Template.Weighting = w }}
}

// WithBuilderFactory sets the signature builder factory (required).
// Every stream's builder is created from the factory with a seed split
// from the engine seed and the stream id.
func WithBuilderFactory(f BuilderFactory) Option {
	return Option{func(c *core.EngineConfig) { c.Factory = f }}
}

// WithGround sets the EMD ground distance (default Euclidean, with its
// exact 1-D fast path).
func WithGround(g Ground) Option {
	return Option{func(c *core.EngineConfig) { c.Template.Ground = g }}
}

// WithBootstrap configures the Bayesian-bootstrap confidence intervals.
// Each stream's replicates run serially; parallelism comes from fanning
// streams across the engine's workers.
func WithBootstrap(bc BootstrapConfig) Option {
	return Option{func(c *core.EngineConfig) { c.Template.Bootstrap = bc }}
}

// WithLogFloor clamps distances before taking logs (0 selects the
// default floor).
func WithLogFloor(floor float64) Option {
	return Option{func(c *core.EngineConfig) { c.Template.LogFloor = floor }}
}

// WithRawMass keeps raw cluster counts as signature masses, enabling the
// partial-matching EMD between bags of different sizes.
func WithRawMass(raw bool) Option {
	return Option{func(c *core.EngineConfig) { c.Template.RawMass = raw }}
}

// WithSeed sets the engine base seed. Each stream gets the derived seed
// randx.SplitSeedString(seed, streamID), so per-stream output is a
// deterministic function of (seed, stream id, pushed bags) only —
// independent of how many streams exist or in what order they open.
func WithSeed(seed int64) Option {
	return Option{func(c *core.EngineConfig) { c.Seed = seed }}
}

// WithWorkers bounds the goroutines PushBatch fans streams across
// (default GOMAXPROCS). Worker count never affects output.
func WithWorkers(n int) Option {
	return Option{func(c *core.EngineConfig) { c.Workers = n }}
}

// WithBuilderTag names the builder-factory configuration as an opaque
// string included in the snapshot fingerprint (e.g.
// "hist(lo=-8,hi=12,bins=30)"). Factories are code, so Engine.Restore
// cannot compare their parameters directly; engines whose tags differ
// refuse each other's snapshots, turning a builder-parameter mismatch
// during rebalancing into a loud error instead of silently different
// scores. Deployments that construct the factory from configuration
// should derive the tag from the same configuration.
func WithBuilderTag(tag string) Option {
	return Option{func(c *core.EngineConfig) { c.BuilderTag = tag }}
}

// NewEngine builds an Engine from functional options and validates the
// resulting configuration: WithTau, WithTauPrime and WithBuilderFactory
// are required, everything else has the same defaults as Config.
func NewEngine(opts ...Option) (*Engine, error) {
	var cfg core.EngineConfig
	for _, o := range opts {
		o.apply(&cfg)
	}
	return core.NewEngine(cfg)
}

// EngineStats is a point-in-time census of an engine's resources
// (Engine.Stats): open streams and pooled free detectors.
type EngineStats = core.Stats

// EngineSnapshot is the versioned serializable envelope of a whole
// engine's state — one entry per open stream carrying its detector's
// window, rolling log-EMD matrix, interval history, bootstrap shard
// stream positions and (for randomized builders) builder RNG position.
// Produce with Engine.Snapshot, ship as JSON, and feed to Engine.Restore
// on an identically configured engine: every restored stream is
// bit-identical going forward to one that never stopped. This is the
// rebalancing primitive — streams move between engine instances by
// snapshotting on one and restoring on another.
type EngineSnapshot = core.EngineSnapshot

// SnapshotVersion is the EngineSnapshot schema version Restore accepts.
const SnapshotVersion = core.SnapshotVersion

// --- HTTP server front-end ---------------------------------------------------

// Server is the stdlib-only net/http front-end over an Engine: NDJSON
// batch ingest with back-pressure (POST /v1/push), stream lifecycle
// (GET /v1/streams, POST /v1/streams/{id}/close), engine state transfer
// (GET /v1/snapshot, POST /v1/restore), idle-stream TTL eviction, and a
// Prometheus-style GET /metrics. See internal/server for the endpoint
// and wire-format documentation, and README.md for the HTTP API guide.
type Server = server.Server

// ServerConfig parameterizes NewServer: the Engine it fronts (required),
// MaxInFlight push batches (back-pressure; 429 beyond it), MaxBatchBags
// and MaxBatchBytes per request, IdleTTL eviction, logging (Logger,
// SlowPush), and durability: the OplogDir write-ahead log (which carries
// the spill store) and the MaxResident pool bound, which requires it.
type ServerConfig = server.Config

// NewServer validates cfg and returns a ready HTTP front-end; mount it
// as an http.Handler and Close it when done (stops the eviction
// janitor). The server assumes ownership of the engine: all pushes and
// lifecycle changes must go through it.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// --- Cluster router ----------------------------------------------------------

// Router is the cluster front tier over a fleet of Server instances: it
// consistent-hashes stream ids over a static member list, forwards
// NDJSON push batches to the owning members (preserving per-row result
// order for the client), aggregates GET /v1/streams and GET /metrics
// across the fleet, and live-migrates streams between members without
// perturbing a single score (POST /v1/migrate). See internal/router for
// the endpoint and wire-format documentation, and README.md's "Cluster
// mode" section for the operational guide.
type Router = router.Router

// RouterConfig parameterizes NewRouter: the static Members list
// (required), hash-ring Replicas per member, the HTTP Client used for
// forwarding, and the Logger. Push bodies are capped at the member
// default, server.DefaultMaxBatchBytes.
type RouterConfig = router.Config

// NewRouter validates cfg and returns a ready router; mount it as an
// http.Handler in front of the member fleet.
func NewRouter(cfg RouterConfig) (*Router, error) { return router.New(cfg) }

// Alarms extracts the inspection times with raised alarms.
func Alarms(points []Point) []int { return core.Alarms(points) }

// Scores extracts the score series.
func Scores(points []Point) []float64 { return core.Scores(points) }

// --- Tiled pairwise EMD -----------------------------------------------------

// PairwiseMatrix is the full symmetric EMD matrix in one flat row-major
// allocation: At(i, j) reads a cell, Rows() gives the n rows as
// [][]float64 for MDSEmbed (views into the same storage).
type PairwiseMatrix = core.PairwiseMatrix

// PairwiseOpt configures PairwiseEMDTiled.
type PairwiseOpt = core.PairwiseOpt

// WithTileSize sets the tile edge T of the upper-triangle partition: a
// worker streams over at most 2T resident signatures per tile. 0 selects
// the default. Tile size never affects the computed values.
func WithTileSize(t int) PairwiseOpt { return core.WithTileSize(t) }

// WithPairWorkers bounds the tile-computing goroutines (<= 0 selects
// GOMAXPROCS). Worker count never affects the computed values.
func WithPairWorkers(n int) PairwiseOpt { return core.WithPairWorkers(n) }

// WithPairBuilderFactory builds signatures through a factory with
// per-bag split seeds (parallel, worker-count-independent). Required.
func WithPairBuilderFactory(f BuilderFactory, seed int64) PairwiseOpt {
	return core.WithPairBuilderFactory(f, seed)
}

// WithPairGround sets the EMD ground distance (nil selects Euclidean
// with its exact 1-D fast path).
func WithPairGround(g Ground) PairwiseOpt { return core.WithPairGround(g) }

// WithPairRawMass keeps raw signature masses (partial-matching EMD)
// instead of normalizing to unit total.
func WithPairRawMass(raw bool) PairwiseOpt { return core.WithPairRawMass(raw) }

// PairwiseEMDTiled computes the full pairwise EMD matrix with the tiled
// engine. The result is a pure function of the signature configuration
// and the ground distance: tile size and worker count are throughput
// knobs only.
func PairwiseEMDTiled(seq Sequence, opts ...PairwiseOpt) (*PairwiseMatrix, error) {
	return core.Pairwise(seq, opts...)
}

// MDSEmbed computes a k-dimensional classical multidimensional-scaling
// embedding of a symmetric distance matrix. It returns the coordinates
// and the Gram eigenvalues (descending).
func MDSEmbed(dist [][]float64, k int) ([][]float64, []float64, error) {
	return mds.Embed(dist, k)
}

// Metrics summarizes detection quality against ground truth.
type Metrics = eval.Metrics

// MatchAlarms scores alarms against true change points: an alarm matches
// a change c when c−before <= alarm <= c+after.
func MatchAlarms(alarms, changes []int, before, after int) Metrics {
	return eval.Match(alarms, changes, before, after)
}

// Segment is a half-open regime interval [Start, End).
type Segment = eval.Segment

// Segments converts alarm times into a segmentation of [0, n), merging
// alarm bursts closer than minGap into a single boundary — the
// preprocessing/segmentation use of change-point detection from the
// paper's introduction.
func Segments(alarms []int, n, minGap int) []Segment {
	return eval.Segments(alarms, n, minGap)
}

// DistProfileConfig parameterizes DistProfile; the zero value is ready
// to use.
type DistProfileConfig = eval.DistProfileConfig

// ChangePoint is one change detected by DistProfile: the boundary time,
// its scan statistic, its permutation p-value, and the segment it was
// found in.
type ChangePoint = eval.ChangePoint

// DistProfile is the offline distance-profile multi-change-point
// detector (Dubey & Zheng style): it segments a corpus from its pairwise
// EMD matrix alone, returning every change point ranked by scan
// statistic with a permutation-bootstrap p-value. The retrospective
// complement to the streaming detector — no window lengths, no alarm
// threshold, and all change points from one matrix (the same matrix the
// Fig. 6 heatmap and MDS embedding consume).
func DistProfile(m *PairwiseMatrix, cfg DistProfileConfig) ([]ChangePoint, error) {
	return eval.DistProfile(m, cfg)
}

// ChangeTimes extracts the change times of DistProfile's result in
// ascending time order.
func ChangeTimes(points []ChangePoint) []int { return eval.ChangeTimes(points) }

// --- §6 extensions -----------------------------------------------------------

// FeatureSelector holds learned per-dimension relevance weights (the
// paper's first future-work direction: online feature selection from
// labeled change/no-change history).
type FeatureSelector = featsel.Selector

// LearnFeatureWeights learns per-dimension relevance weights from a
// labeled history: changeTimes are the inspection times labeled as
// changes; tau and tauPrime must match the detector the labels came
// from. Wrap the learned selector around any builder with
// (*FeatureSelector).Builder to apply it inside a detector Config.
func LearnFeatureWeights(seq Sequence, changeTimes []int, tau, tauPrime int) (*FeatureSelector, error) {
	return featsel.Learn(seq, changeTimes, featsel.Config{Tau: tau, TauPrime: tauPrime})
}

// Whiten replaces each 1-D bag (interpreted as an ordered sample run)
// with its AR(order) innovation bag — the paper's second future-work
// direction, for bags whose elements are serially correlated. Two
// regimes with identical marginals but different dynamics become
// distinguishable after whitening.
func Whiten(seq Sequence, order int) (Sequence, error) {
	return innovate.Whiten(seq, order)
}
