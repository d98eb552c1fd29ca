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
// single base seed. The streams are created once and advance across
// calls, and every shard runs in order on the caller's goroutine, so the
// sequence of intervals is a deterministic function of the seed and the
// call sequence. Callers that want parallelism run independent
// Estimators (the engine fans streams, not replicates, across cores).
// The Estimator type owns all scratch (Dirichlet parameters, weight
// vectors, the replicate score buffer, shard RNGs) so a warm Estimator
// computes intervals with zero steady-state allocations.
package bootstrap

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/randx"
)

// Config controls confidence-interval estimation.
type Config struct {
	// Replicates is T, the number of bootstrap replicates (0 selects
	// the default 1000).
	Replicates int
	// Alpha is the significance level; the interval covers 1−Alpha
	// (0 selects the default 0.05 → 95% interval).
	Alpha float64
}

// Validate rejects the settings withDefaults would not map: an Alpha
// outside [0, 1) or non-finite, and a negative Replicates. Zero means
// the default for both.
func (c Config) Validate() error {
	if !(c.Alpha >= 0 && c.Alpha < 1) {
		return fmt.Errorf("bootstrap: Alpha must be in [0, 1) (0 = default 0.05), got %g", c.Alpha)
	}
	if c.Replicates < 0 {
		return fmt.Errorf("bootstrap: Replicates must be >= 0 (0 = default 1000), got %d", c.Replicates)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Replicates == 0 {
		c.Replicates = 1000
	}
	if c.Alpha == 0 {
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
// function must not retain them. It is called serially, on the
// goroutine that calls Interval.
type ScoreFunc func(gRef, gTest []float64) float64

// shardSize is the number of replicates per RNG stream. It is part of
// the reproducibility contract: changing it changes which stream drives
// which replicate and hence the drawn weights for a given seed.
const shardSize = 64

// Estimator computes Bayesian-bootstrap confidence intervals with
// reusable scratch buffers. Create it with NewSeededEstimator. An
// Estimator is not safe for concurrent use (but distinct Estimators are
// independent).
type Estimator struct {
	alphaRef, alphaTest []float64
	gRef, gTest         []float64
	scores              []float64
	// shards[k] is shard k's persistent stream, created lazily at
	// NewFast(SplitSeed(seedBase, k)).
	shards   []*randx.RNG
	seedBase int64
}

// NewSeededEstimator returns an estimator with persistent shard streams:
// shard k is driven by the stream NewFast(SplitSeed(seed, k)), created
// once and advanced across calls, so no reseeding cost is ever paid. The
// sequence of intervals is a deterministic function of seed and the call
// sequence. Buffers grow on first use and are retained for subsequent
// calls.
func NewSeededEstimator(seed int64) *Estimator {
	return &Estimator{seedBase: seed}
}

// ResetStreams rewinds the estimator to the state NewSeededEstimator(seed)
// would have: persistent shard streams at their initial positions for
// seed, with all scratch buffers retained. Pooled detectors use this to
// recycle a warm estimator for a new stream without reallocating its
// shard RNGs — the subsequent interval sequence is bit-identical to a
// freshly seeded estimator's.
func (e *Estimator) ResetStreams(seed int64) {
	e.seedBase = seed
	for k, rng := range e.shards {
		rng.Reseed(randx.SplitSeed(seed, int64(k)))
	}
}

// StreamState is the serializable position of an estimator's persistent
// shard streams. Restoring it with RestoreStreams yields an estimator
// whose future intervals are bit-identical to the one it was captured
// from — the checkpoint/resume hook the engine snapshot uses.
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

// StreamState captures the positions of the estimator's shard streams.
func (e *Estimator) StreamState() StreamState {
	st := StreamState{Seed: e.seedBase, Shards: make([]randx.State, len(e.shards))}
	for k, rng := range e.shards {
		// Every shard is a NewFast stream, whose State cannot fail.
		st.Shards[k], _ = rng.State()
	}
	return st
}

// RestoreStreams positions the estimator's persistent shard streams at
// st: existing shard RNGs take st's state words in place, missing ones
// are created, and shards beyond st.Shards are rewound to their initial
// position (matching an uninterrupted run, where they would not have been
// created yet). The cost is a copy per shard, independent of how many
// intervals the captured estimator had computed. After RestoreStreams the
// estimator's interval sequence is bit-identical to the estimator
// StreamState was captured from.
func (e *Estimator) RestoreStreams(st StreamState) error {
	e.ResetStreams(st.Seed)
	e.growShards(len(st.Shards))
	for k := range st.Shards {
		if err := e.shards[k].Restore(st.Shards[k]); err != nil {
			return fmt.Errorf("bootstrap: shard %d: %w", k, err)
		}
	}
	return nil
}

// Interval estimates the 100(1−α)% Bayesian-bootstrap interval of score
// (Eq. 19). baseRef and baseTest are the base weight vectors θ of the
// reference and test sets; each must be non-negative and sum to 1.
// Replicate r draws γ_ref ~ Dir(τ·θ_ref), γ_test ~ Dir(τ′·θ_test)
// (Eq. 21-22) from shard r/64's stream and evaluates score(γ_ref,
// γ_test). The estimator's shard streams advance; its scratch is reused.
func (e *Estimator) Interval(score ScoreFunc, baseRef, baseTest []float64, cfg Config) (Interval, error) {
	if err := cfg.Validate(); err != nil {
		return Interval{}, err
	}
	cfg = cfg.withDefaults()
	if err := validateWeights("baseRef", baseRef); err != nil {
		return Interval{}, err
	}
	if err := validateWeights("baseTest", baseTest); err != nil {
		return Interval{}, err
	}
	e.alphaRef = scaledInto(e.alphaRef, baseRef)
	e.alphaTest = scaledInto(e.alphaTest, baseTest)
	e.gRef = growFloats(e.gRef, len(baseRef))
	e.gTest = growFloats(e.gTest, len(baseTest))

	T := cfg.Replicates
	if cap(e.scores) < T {
		e.scores = make([]float64, T)
	}
	e.scores = e.scores[:T]
	numShards := (T + shardSize - 1) / shardSize
	e.growShards(numShards)
	for k := 0; k < numShards; k++ {
		e.runShard(k, score, T)
	}

	lo := quantileSelect(e.scores, cfg.Alpha/2)
	up := quantileSelect(e.scores, 1-cfg.Alpha/2)
	return Interval{Lo: lo, Up: up, Point: score(baseRef, baseTest)}, nil
}

// growShards materializes shard streams up to n. A new shard k starts at
// its persistent stream's initial position, NewFast(SplitSeed(seedBase, k)).
func (e *Estimator) growShards(n int) {
	for k := len(e.shards); k < n; k++ {
		e.shards = append(e.shards, randx.NewFast(randx.SplitSeed(e.seedBase, int64(k))))
	}
}

// runShard evaluates shard k's replicates (those of the first T that
// fall in [k·shardSize, (k+1)·shardSize)) into the scores buffer.
func (e *Estimator) runShard(k int, score ScoreFunc, T int) {
	rng := e.shards[k]
	hi := min((k+1)*shardSize, T)
	for r := k * shardSize; r < hi; r++ {
		rng.DirichletInto(e.alphaRef, e.gRef)
		rng.DirichletInto(e.alphaTest, e.gTest)
		e.scores[r] = score(e.gRef, e.gTest)
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
