// Package bootstrap implements the Bayesian bootstrap (Rubin 1981) used
// in §4 of the paper to attach confidence intervals to change-point
// scores, and the overlap test (Eq. 18-20) that turns those intervals
// into an adaptive alarm threshold.
//
// Instead of resampling data points, the Bayesian bootstrap resamples the
// WEIGHTS attached to them: each replicate draws a fresh weight vector
// from a Dirichlet distribution and re-evaluates the statistic. Because
// the change-point scores of this paper are explicit functions of the
// signature weights (and of a fixed log-EMD matrix), every replicate
// costs only O((τ+τ′)²) floating-point work — no distance is recomputed.
//
// The plain bootstrap uses Dir(1,…,1) (Appendix A). When the analyst
// supplies non-uniform base weights θ (e.g. the time-discounting of
// Eq. 15), Appendix B prescribes Dir(n·θ), which matches the first two
// moments of weighted multinomial resampling.
//
// Replicates are organized in fixed-size shards, each driven by its own
// xoshiro256++ stream (randx.NewFast) derived with randx.SplitSeed from a
// single base seed. The result is therefore bit-identical for a given
// seed no matter how many worker goroutines execute the shards —
// parallelism is a pure throughput knob. The Estimator type owns all scratch (Dirichlet parameters, weight
// vectors, the replicate score buffer, shard RNGs) so a warm Estimator
// computes intervals with zero steady-state allocations.
package bootstrap

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/randx"
)

// Config controls confidence-interval estimation.
type Config struct {
	// Replicates is T, the number of bootstrap replicates (default 1000).
	Replicates int
	// Alpha is the significance level; the interval covers 1−Alpha
	// (default 0.05 → 95% interval).
	Alpha float64
	// Workers caps the number of goroutines evaluating replicate shards.
	// 0 or 1 evaluates everything on the calling goroutine (safe for
	// stateful score functions); >= 2 requires score to be safe for
	// concurrent calls. The interval is bit-identical for a given RNG
	// state regardless of Workers.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Replicates <= 0 {
		c.Replicates = 1000
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = 0.05
	}
	return c
}

// Interval is a two-sided confidence interval [Lo, Up] for a score, with
// the point estimate computed at the base weights.
type Interval struct {
	Lo, Up float64
	// Point is the score evaluated at the unresampled base weights.
	Point float64
}

// Contains reports whether x lies in the closed interval.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Up }

// Width returns Up − Lo.
func (iv Interval) Width() float64 { return iv.Up - iv.Lo }

// ScoreFunc evaluates the statistic under one weight assignment. The
// slices are owned by the caller and reused across replicates; the
// function must not retain them. When Config.Workers >= 2 the function is
// called from multiple goroutines concurrently and must be safe for that
// (pure functions of the arguments, like the infoest scores, are).
type ScoreFunc func(gRef, gTest []float64) float64

// shardSize is the number of replicates per RNG stream. It is part of
// the reproducibility contract: changing it changes which stream drives
// which replicate and hence the drawn weights for a given seed.
const shardSize = 64

// shardState is one replicate shard's private scratch.
type shardState struct {
	rng         *randx.RNG
	gRef, gTest []float64
}

// Estimator computes Bayesian-bootstrap confidence intervals with
// reusable scratch buffers and optional parallel shard evaluation.
// The zero value is NOT ready; use NewEstimator or NewSeededEstimator. An
// Estimator is not safe for concurrent use (but distinct Estimators are
// independent).
type Estimator struct {
	alphaRef, alphaTest []float64
	scores              []float64
	shards              []shardState

	// persistent selects the shard stream regime. A seeded estimator owns
	// long-lived shard streams derived once from seedBase; an unseeded one
	// reseeds every shard from the caller's RNG on each call.
	persistent bool
	seedBase   int64

	// Per-call state shared with worker goroutines.
	score      ScoreFunc
	replicates int
	numShards  int
	next       atomic.Int64
	wg         sync.WaitGroup
}

// NewEstimator returns an estimator in per-call reseed mode: every
// Interval call consumes one draw from its rng argument and deterministic
// shard streams are derived from it, so a pooled/shared Estimator gives
// reproducible results purely as a function of the caller's RNG state.
// Buffers grow on first use and are retained for subsequent calls.
func NewEstimator() *Estimator { return &Estimator{} }

// NewSeededEstimator returns an estimator with persistent shard streams:
// shard k is driven by the stream NewFast(SplitSeed(seed, k)), created
// once and advanced across calls, so no reseeding cost is ever paid. The
// sequence of intervals is a deterministic function of seed and the call
// sequence, and — like the per-call mode — bit-identical regardless of
// Config.Workers. The rng argument of Interval is ignored (may be nil).
// This is the regime for streaming detectors, which pay for an interval
// on every push.
func NewSeededEstimator(seed int64) *Estimator {
	return &Estimator{persistent: true, seedBase: seed}
}

// ResetStreams rewinds the estimator to the state NewSeededEstimator(seed)
// would have: persistent shard streams at their initial positions for
// seed, with all scratch buffers retained. Pooled detectors use this to
// recycle a warm estimator for a new stream without reallocating its
// shard RNGs — the subsequent interval sequence is bit-identical to a
// freshly seeded estimator's. Calling it on a per-call estimator
// (NewEstimator) converts it to persistent mode.
func (e *Estimator) ResetStreams(seed int64) {
	e.persistent = true
	e.seedBase = seed
	for k := range e.shards {
		e.shards[k].rng.Reseed(randx.SplitSeed(seed, int64(k)))
	}
}

// StreamState is the serializable position of a seeded estimator's
// persistent shard streams. Restoring it with RestoreStreams yields an
// estimator whose future intervals are bit-identical to the one it was
// captured from — the checkpoint/resume hook the engine snapshot uses.
type StreamState struct {
	// Seed is the estimator's base seed (shard k's stream derives from
	// SplitSeed(Seed, k)).
	Seed int64 `json:"seed"`
	// Shards holds the xoshiro state words of every shard stream
	// materialized so far; shards beyond the slice haven't been created
	// yet and restore implicitly (a lazily-created shard always starts at
	// its seeded position).
	Shards []randx.State `json:"shards"`
}

// StreamState captures the persistent shard stream positions of a seeded
// estimator (NewSeededEstimator or ResetStreams). It errors on a per-call
// estimator, whose shard streams are reseeded from the caller's RNG every
// Interval and therefore have no position of their own to checkpoint.
func (e *Estimator) StreamState() (StreamState, error) {
	if !e.persistent {
		return StreamState{}, fmt.Errorf("bootstrap: StreamState requires a seeded estimator (NewSeededEstimator)")
	}
	st := StreamState{Seed: e.seedBase, Shards: make([]randx.State, len(e.shards))}
	for k := range e.shards {
		var err error
		if st.Shards[k], err = e.shards[k].rng.State(); err != nil {
			return StreamState{}, fmt.Errorf("bootstrap: shard %d: %w", k, err)
		}
	}
	return st, nil
}

// RestoreStreams positions the estimator's persistent shard streams at
// st: existing shard RNGs take st's state words in place, missing ones
// are created, and shards beyond st.Shards are rewound to their initial
// position (matching an uninterrupted run, where they would not have been
// created yet). The cost is a copy per shard, independent of how many
// intervals the captured estimator had computed. After RestoreStreams the
// estimator's interval sequence is bit-identical to the estimator
// StreamState was captured from. Like ResetStreams, calling it on a
// per-call estimator converts it to persistent mode.
func (e *Estimator) RestoreStreams(st StreamState) error {
	e.ResetStreams(st.Seed)
	e.growShards(len(st.Shards))
	for k := range st.Shards {
		if err := e.shards[k].rng.Restore(st.Shards[k]); err != nil {
			return fmt.Errorf("bootstrap: shard %d: %w", k, err)
		}
	}
	return nil
}

var estimatorPool = sync.Pool{New: func() any { return NewEstimator() }}

// ConfidenceInterval estimates the 100(1−α)% Bayesian-bootstrap interval
// of score (Eq. 19). baseRef and baseTest are the base weight vectors θ
// of the reference and test sets; each must be non-negative and sum to 1.
// Replicate r draws γ_ref ~ Dir(τ·θ_ref), γ_test ~ Dir(τ′·θ_test)
// (Eq. 21-22) and evaluates score(γ_ref, γ_test).
//
// This is the convenience wrapper: it rents an Estimator from an internal
// pool. Streaming callers (the detector) hold their own Estimator.
func ConfidenceInterval(score ScoreFunc, baseRef, baseTest []float64, cfg Config, rng *randx.RNG) (Interval, error) {
	e := estimatorPool.Get().(*Estimator)
	defer estimatorPool.Put(e)
	return e.Interval(score, baseRef, baseTest, cfg, rng)
}

// Interval estimates the confidence interval like ConfidenceInterval,
// reusing the Estimator's scratch. In per-call reseed mode (NewEstimator)
// rng is consumed for exactly one draw — the shard seed base — so the
// caller's stream advances identically regardless of Replicates or
// Workers. In persistent mode (NewSeededEstimator) rng is ignored and the
// estimator's own shard streams advance instead.
func (e *Estimator) Interval(score ScoreFunc, baseRef, baseTest []float64, cfg Config, rng *randx.RNG) (Interval, error) {
	cfg = cfg.withDefaults()
	if err := validateWeights("baseRef", baseRef); err != nil {
		return Interval{}, err
	}
	if err := validateWeights("baseTest", baseTest); err != nil {
		return Interval{}, err
	}
	e.alphaRef = scaledInto(e.alphaRef, baseRef)
	e.alphaTest = scaledInto(e.alphaTest, baseTest)

	T := cfg.Replicates
	e.replicates = T
	e.numShards = (T + shardSize - 1) / shardSize
	e.score = score
	if cap(e.scores) < T {
		e.scores = make([]float64, T)
	}
	e.scores = e.scores[:T]
	e.growShards(e.numShards)
	for k := 0; k < e.numShards; k++ {
		s := &e.shards[k]
		s.gRef = growFloats(s.gRef, len(baseRef))
		s.gTest = growFloats(s.gTest, len(baseTest))
	}

	if !e.persistent {
		// One draw from the caller's stream seeds every shard.
		base := rng.Int63()
		for k := 0; k < e.numShards; k++ {
			e.shards[k].rng.Reseed(randx.SplitSeed(base, int64(k)))
		}
	}

	workers := cfg.Workers
	if workers > e.numShards {
		workers = e.numShards
	}
	if workers <= 1 {
		for k := 0; k < e.numShards; k++ {
			e.runShard(k)
		}
	} else {
		e.next.Store(0)
		e.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go e.runWorker()
		}
		e.wg.Wait()
	}
	e.score = nil // do not retain the caller's closure

	lo := quantileSelect(e.scores, cfg.Alpha/2)
	up := quantileSelect(e.scores, 1-cfg.Alpha/2)
	return Interval{Lo: lo, Up: up, Point: score(baseRef, baseTest)}, nil
}

// growShards materializes shard streams up to n. A new shard k starts at
// NewFast(SplitSeed(seedBase, k)): its persistent stream's initial
// position, and in per-call mode a placeholder reseeded before use.
func (e *Estimator) growShards(n int) {
	for k := len(e.shards); k < n; k++ {
		e.shards = append(e.shards, shardState{rng: randx.NewFast(randx.SplitSeed(e.seedBase, int64(k)))})
	}
}

// runWorker drains shard indices until none remain.
func (e *Estimator) runWorker() {
	defer e.wg.Done()
	for {
		k := int(e.next.Add(1)) - 1
		if k >= e.numShards {
			return
		}
		e.runShard(k)
	}
}

// runShard evaluates the replicates of shard k into the scores buffer.
func (e *Estimator) runShard(k int) {
	s := &e.shards[k]
	lo := k * shardSize
	hi := lo + shardSize
	if hi > e.replicates {
		hi = e.replicates
	}
	for r := lo; r < hi; r++ {
		s.rng.DirichletInto(e.alphaRef, s.gRef)
		s.rng.DirichletInto(e.alphaTest, s.gTest)
		e.scores[r] = e.score(s.gRef, s.gTest)
	}
}

// scaledInto fills dst with n·θ, clamping zero entries to a tiny positive
// value (the Dirichlet needs strictly positive parameters; a zero base
// weight means the item should essentially never receive mass). Entries
// within rounding error of 1 are snapped to exactly 1 so the Gamma(1,1) =
// Exp(1) fast path triggers for uniform base weights.
func scaledInto(dst, theta []float64) []float64 {
	dst = growFloats(dst, len(theta))
	n := float64(len(theta))
	for i, v := range theta {
		a := n * v
		if a <= 0 {
			a = 1e-8
		} else if math.Abs(a-1) <= 1e-12 {
			a = 1
		}
		dst[i] = a
	}
	return dst
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func validateWeights(name string, w []float64) error {
	if len(w) == 0 {
		return fmt.Errorf("bootstrap: %s is empty", name)
	}
	total := 0.0
	for i, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bootstrap: %s[%d] = %g", name, i, v)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("bootstrap: %s sums to %g, want 1", name, total)
	}
	return nil
}

// Quantile returns the p-quantile (0 <= p <= 1) of an ASCENDING-sorted
// slice using linear interpolation between order statistics.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quantileSelect returns the same value as Quantile(sort(xs), p) without
// sorting: it selects the two order statistics the interpolation needs
// with an in-place quickselect (O(n) expected instead of O(n log n)).
// xs is reordered but not otherwise modified. NaN scores (a degenerate
// statistic) are not orderable by the Hoare partition, so that case
// falls back to the sort-based path, which degrades gracefully the way
// the pre-quickselect implementation did.
func quantileSelect(xs []float64, p float64) float64 {
	for _, v := range xs {
		if math.IsNaN(v) {
			sort.Float64s(xs)
			return Quantile(xs, p)
		}
	}
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return xs[0]
	}
	if p <= 0 {
		return selectKth(xs, 0)
	}
	if p >= 1 {
		return selectKth(xs, n-1)
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return selectKth(xs, n-1)
	}
	a := selectKth(xs, lo)
	// After selectKth, xs[lo+1:] holds exactly the elements ranked above
	// lo, so the next order statistic is their minimum.
	b := xs[lo+1]
	for _, v := range xs[lo+2:] {
		if v < b {
			b = v
		}
	}
	return a*(1-frac) + b*frac
}

// selectKth partially reorders xs so xs[k] holds its ascending-order
// value, everything before it is <= and everything after is >=. It uses
// iterative median-of-three quickselect (deterministic; expected O(n)).
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot, moved to xs[lo].
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Hoare partition.
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if xs[i] >= pivot {
					break
				}
			}
			for {
				j--
				if xs[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return xs[k]
}

// Kappa computes the test statistic κ_t = ξ_lo(t) − ξ_up(t−τ′) of Eq. 20:
// cur is the interval at the inspection point, prev the interval τ′ steps
// earlier (so the two test windows share no bags).
func Kappa(cur, prev Interval) float64 { return cur.Lo - prev.Up }

// Alarm reports whether κ_t > 0 (Eq. 18): the current interval lies
// entirely above the earlier one, signalling a significant change.
func Alarm(cur, prev Interval) bool { return Kappa(cur, prev) > 0 }
