// Package signature implements the bag summaries of §3.1 of the paper: a
// signature S = {(u_k, w_k)} is a set of cluster centers u_k with masses
// w_k (the number of bag points quantized to each center). Builders turn a
// bag into a signature via k-means, k-medoids, online competitive
// learning, or fixed-width histogram binning (the 1-D special case the
// paper highlights).
package signature

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bag"
	"repro/internal/cluster"
	"repro/internal/randx"
	"repro/internal/vec"
)

// Signature is a weighted point set summarizing one bag's distribution.
type Signature struct {
	// Centers are the representative vectors u_k.
	Centers [][]float64
	// Weights are the masses w_k >= 0 (typically cluster populations).
	Weights []float64
}

// Len returns the number of (center, weight) pairs.
func (s Signature) Len() int { return len(s.Centers) }

// Dim returns the dimension of the centers, or 0 for an empty signature.
func (s Signature) Dim() int {
	if len(s.Centers) == 0 {
		return 0
	}
	return len(s.Centers[0])
}

// TotalWeight returns the sum of the weights.
func (s Signature) TotalWeight() float64 { return vec.Sum(s.Weights) }

// Validate checks structural consistency: matching lengths, uniform
// dimension, non-negative finite weights, and positive total weight.
func (s Signature) Validate() error {
	if len(s.Centers) != len(s.Weights) {
		return fmt.Errorf("signature: %d centers but %d weights", len(s.Centers), len(s.Weights))
	}
	if len(s.Centers) == 0 {
		return fmt.Errorf("signature: empty")
	}
	d := len(s.Centers[0])
	for i, c := range s.Centers {
		if len(c) != d {
			return fmt.Errorf("signature: center %d has dimension %d, want %d", i, len(c), d)
		}
	}
	total := 0.0
	for i, w := range s.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("signature: weight %d is %g", i, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("signature: total weight is %g", total)
	}
	return nil
}

// Normalized returns a copy whose weights sum to 1. Signatures with equal
// total mass make EMD a true metric, so detector pipelines normalize by
// default.
func (s Signature) Normalized() Signature {
	total := s.TotalWeight()
	out := Signature{Centers: s.Centers, Weights: make([]float64, len(s.Weights))}
	if total <= 0 {
		return out
	}
	for i, w := range s.Weights {
		out.Weights[i] = w / total
	}
	return out
}

// Clone returns a deep copy.
func (s Signature) Clone() Signature {
	out := Signature{
		Centers: make([][]float64, len(s.Centers)),
		Weights: vec.Clone(s.Weights),
	}
	for i, c := range s.Centers {
		out.Centers[i] = vec.Clone(c)
	}
	return out
}

// Mean returns the weighted mean of the signature's centers.
func (s Signature) Mean() []float64 {
	if s.Len() == 0 {
		return nil
	}
	m := make([]float64, s.Dim())
	total := s.TotalWeight()
	if total <= 0 {
		return m
	}
	for i, c := range s.Centers {
		vec.AddScaled(m, s.Weights[i]/total, c)
	}
	return m
}

// A Builder turns a bag into a signature.
//
// Determinism contract: a Builder may hold mutable state (the k-means
// and k-medoids builders consume draws from their RNG on every Build),
// so its output is a function of the whole call sequence, not of the
// single bag. Sharing one stateful Builder between detectors or
// goroutines silently couples their signature streams and destroys
// per-detector reproducibility. Components that need one independent
// builder per stream, per bag, or per worker take a BuilderFactory
// instead and derive each builder's seed with randx.SplitSeed.
type Builder interface {
	// Build summarizes b. It returns an error for bags it cannot
	// summarize (e.g. empty bags).
	Build(b bag.Bag) (Signature, error)
}

// A BuilderFactory constructs a fresh Builder whose randomness (if any)
// is driven entirely by seed. Factories are the stream-safe way to hand
// builders to concurrent components: every call returns a builder with
// its own RNG state, two calls with the same seed return builders with
// identical behaviour, and the factory itself must be safe for
// concurrent calls. Builders for deterministic summaries (histogram,
// grid, online quantization) may ignore the seed and even return a
// shared instance, provided Build is stateless and concurrency-safe.
type BuilderFactory func(seed int64) Builder

// RNGSnapshotter is implemented by builders whose Build consumes RNG
// draws (k-means, k-medoids): their signature stream is a function of
// the RNG position, so checkpointing a detector mid-run requires
// exporting that position and restoring it onto the factory-fresh
// builder of the resumed stream. Stateless builders (histogram, grid,
// online) deliberately do not implement it — they have nothing to
// checkpoint. Only a builder on a randx.NewFast stream (every factory
// builder is) has an exportable position; RNGState errors for one built
// by hand on randx.New.
type RNGSnapshotter interface {
	// RNGState returns the builder's current RNG stream position.
	RNGState() (randx.State, error)
	// RestoreRNGState positions the builder's RNG at st; after it the
	// builder's future signatures are bit-identical to the builder the
	// state was captured from.
	RestoreRNGState(st randx.State) error
}

// FixedSupport is implemented by builders whose signatures always take
// their centers from one fixed set (the histogram's bin midpoints, the
// grid's cell centers), so the ground costs between any two of their
// signatures repeat from bag to bag. It alone decides whether an EMD
// solver gets a ground-cost cache, for the detector and the pairwise
// matrix alike: such builders get one, and clustering builders
// (k-means, k-medoids, online), which place new centers on every bag
// and would never hit a cache, get none.
type FixedSupport interface {
	// FixedSupport reports whether every signature's centers come from
	// the builder's fixed set.
	FixedSupport() bool
}

// KMeansFactory returns a factory of independently seeded k-means
// builders: factory(seed) behaves exactly like
// NewKMeansBuilder(k, cfg, randx.NewFast(seed)), so its RNG position is
// checkpointable.
func KMeansFactory(k int, cfg cluster.Config) BuilderFactory {
	return func(seed int64) Builder { return NewKMeansBuilder(k, cfg, randx.NewFast(seed)) }
}

// KMedoidsFactory returns a factory of independently seeded k-medoids
// builders on randx.NewFast(seed).
func KMedoidsFactory(k int, cfg cluster.Config) BuilderFactory {
	return func(seed int64) Builder { return NewKMedoidsBuilder(k, cfg, randx.NewFast(seed)) }
}

// OnlineFactory returns a factory of online quantizer builders. The
// online builder is deterministic and stateless across Build calls, so
// the seed is ignored.
func OnlineFactory(k int, rate0 float64) BuilderFactory {
	return func(int64) Builder { return NewOnlineBuilder(k, rate0) }
}

// HistogramFactory returns a factory for the 1-D histogram builder. The
// builder is deterministic and stateless, so one shared instance serves
// every seed. Invalid parameters panic at factory construction, not at
// first use.
func HistogramFactory(lo, hi float64, bins int) BuilderFactory {
	hb := NewHistogramBuilder(lo, hi, bins)
	return func(int64) Builder { return hb }
}

// GridFactory returns a factory for the d-D grid builder; like
// HistogramFactory it validates eagerly and shares one stateless
// instance.
func GridFactory(lo, hi []float64, bins int) BuilderFactory {
	gb := NewGridBuilder(lo, hi, bins)
	return func(int64) Builder { return gb }
}

// KMeansBuilder quantizes bags with k-means (§3.1). The zero value is not
// usable; construct with NewKMeansBuilder.
type KMeansBuilder struct {
	k   int
	cfg cluster.Config
	rng *randx.RNG
}

// NewKMeansBuilder creates a k-means signature builder with at most k
// clusters per bag. The rng drives the k-means++ seeding; pass a split
// stream for reproducibility.
func NewKMeansBuilder(k int, cfg cluster.Config, rng *randx.RNG) *KMeansBuilder {
	return &KMeansBuilder{k: k, cfg: cfg, rng: rng}
}

// workspacePool lends k-means scratch to Build calls. One Workspace per
// builder would keep its buffers alive for every idle stream; renting
// keeps only as many as there are concurrent Builds.
var workspacePool = sync.Pool{New: func() any { return new(cluster.Workspace) }}

// Build implements Builder. It clusters on a pooled cluster.Workspace
// and copies the centers into one backing array, each center a
// capacity-capped view of it, so a signature costs three allocations.
func (kb *KMeansBuilder) Build(b bag.Bag) (Signature, error) {
	if b.Len() == 0 {
		return Signature{}, fmt.Errorf("signature: cannot summarize empty bag (t=%d)", b.T)
	}
	ws := workspacePool.Get().(*cluster.Workspace)
	defer workspacePool.Put(ws)
	if err := ws.KMeans(b.Points, kb.k, kb.cfg, kb.rng); err != nil {
		return Signature{}, err
	}
	k, d := len(ws.Counts), ws.Dim
	flat := make([]float64, k*d)
	copy(flat, ws.Centers)
	s := Signature{
		Centers: make([][]float64, k),
		Weights: make([]float64, k),
	}
	for c := range s.Centers {
		s.Centers[c] = flat[c*d : (c+1)*d : (c+1)*d]
		s.Weights[c] = float64(ws.Counts[c])
	}
	return s, nil
}

// Reseed rewinds the builder's RNG to the stream its backend produces
// for seed — for a factory builder, the stream KMeansFactory(…)(seed)
// starts on. BuildSequenceParallel uses this to re-derive a per-bag
// stream on a worker-owned builder without allocating a new one.
func (kb *KMeansBuilder) Reseed(seed int64) { kb.rng.Reseed(seed) }

// RNGState implements RNGSnapshotter.
func (kb *KMeansBuilder) RNGState() (randx.State, error) { return kb.rng.State() }

// RestoreRNGState implements RNGSnapshotter.
func (kb *KMeansBuilder) RestoreRNGState(st randx.State) error { return kb.rng.Restore(st) }

// KMedoidsBuilder quantizes bags with k-medoids.
type KMedoidsBuilder struct {
	k   int
	cfg cluster.Config
	rng *randx.RNG
}

// NewKMedoidsBuilder creates a k-medoids signature builder.
func NewKMedoidsBuilder(k int, cfg cluster.Config, rng *randx.RNG) *KMedoidsBuilder {
	return &KMedoidsBuilder{k: k, cfg: cfg, rng: rng}
}

// Build implements Builder.
func (kb *KMedoidsBuilder) Build(b bag.Bag) (Signature, error) {
	if b.Len() == 0 {
		return Signature{}, fmt.Errorf("signature: cannot summarize empty bag (t=%d)", b.T)
	}
	res, err := cluster.KMedoids(b.Points, kb.k, kb.cfg, kb.rng)
	if err != nil {
		return Signature{}, err
	}
	return fromClusterResult(res), nil
}

// Reseed rewinds the builder's RNG to its backend's stream for seed; see
// (*KMeansBuilder).Reseed.
func (kb *KMedoidsBuilder) Reseed(seed int64) { kb.rng.Reseed(seed) }

// RNGState implements RNGSnapshotter.
func (kb *KMedoidsBuilder) RNGState() (randx.State, error) { return kb.rng.State() }

// RestoreRNGState implements RNGSnapshotter.
func (kb *KMedoidsBuilder) RestoreRNGState(st randx.State) error { return kb.rng.Restore(st) }

// OnlineBuilder quantizes bags with one-pass competitive learning
// (unsupervised LVQ), suitable for very large bags.
type OnlineBuilder struct {
	k     int
	rate0 float64
}

// NewOnlineBuilder creates an online quantizer builder with k centers and
// initial learning rate rate0.
func NewOnlineBuilder(k int, rate0 float64) *OnlineBuilder {
	return &OnlineBuilder{k: k, rate0: rate0}
}

// Build implements Builder.
func (ob *OnlineBuilder) Build(b bag.Bag) (Signature, error) {
	if b.Len() == 0 {
		return Signature{}, fmt.Errorf("signature: cannot summarize empty bag (t=%d)", b.T)
	}
	o := cluster.NewOnline(ob.k, ob.rate0)
	for _, p := range b.Points {
		o.Push(p)
	}
	return fromClusterResult(o.Result(b.Points)), nil
}

func fromClusterResult(res *cluster.Result) Signature {
	s := Signature{
		Centers: res.Centers,
		Weights: make([]float64, len(res.Counts)),
	}
	for i, c := range res.Counts {
		s.Weights[i] = float64(c)
	}
	return s
}

// HistogramBuilder bins 1-D bags into fixed-width bins over [Lo, Hi)
// (§3.1's "very simple way to make signatures"). Out-of-range points are
// clamped into the boundary bins. Empty bins are dropped from the
// signature (signatures are sparse histograms).
type HistogramBuilder struct {
	Lo, Hi float64
	Bins   int
}

// NewHistogramBuilder creates a histogram builder with the given range and
// bin count. It panics for invalid parameters so misconfiguration fails
// fast at experiment setup.
func NewHistogramBuilder(lo, hi float64, bins int) *HistogramBuilder {
	if bins < 1 || !(hi > lo) {
		panic(fmt.Sprintf("signature: invalid histogram [%g,%g) with %d bins", lo, hi, bins))
	}
	return &HistogramBuilder{Lo: lo, Hi: hi, Bins: bins}
}

// FixedSupport implements FixedSupport: every center is a bin midpoint.
func (hb *HistogramBuilder) FixedSupport() bool { return true }

// Build implements Builder for 1-D bags.
func (hb *HistogramBuilder) Build(b bag.Bag) (Signature, error) {
	if b.Len() == 0 {
		return Signature{}, fmt.Errorf("signature: cannot summarize empty bag (t=%d)", b.T)
	}
	if b.Dim() != 1 {
		return Signature{}, fmt.Errorf("signature: histogram builder needs 1-D bags, got %d-D", b.Dim())
	}
	width := (hb.Hi - hb.Lo) / float64(hb.Bins)
	counts := make([]float64, hb.Bins)
	occupied := 0
	for _, p := range b.Points {
		idx := int((p[0] - hb.Lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= hb.Bins {
			idx = hb.Bins - 1
		}
		if counts[idx] == 0 {
			occupied++
		}
		counts[idx]++
	}
	// One backing array for every 1-D center, each a capacity-capped
	// view of it, so the signature costs four allocations at any size.
	mids := make([]float64, occupied)
	s := Signature{
		Centers: make([][]float64, occupied),
		Weights: make([]float64, occupied),
	}
	k := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		mids[k] = hb.Lo + (float64(i)+0.5)*width
		s.Centers[k] = mids[k : k+1 : k+1]
		s.Weights[k] = c
		k++
	}
	return s, nil
}

// GridBuilder bins d-dimensional bags into a fixed-width grid, the d-D
// generalization of HistogramBuilder. Bins are addressed sparsely so only
// occupied cells consume memory.
type GridBuilder struct {
	Lo, Hi []float64
	Bins   int // bins per dimension
}

// NewGridBuilder creates a grid builder over the box [lo, hi) with bins
// cells per dimension. It panics for invalid parameters.
func NewGridBuilder(lo, hi []float64, bins int) *GridBuilder {
	if bins < 1 || len(lo) != len(hi) || len(lo) == 0 {
		panic("signature: invalid grid parameters")
	}
	for j := range lo {
		if !(hi[j] > lo[j]) {
			panic(fmt.Sprintf("signature: invalid grid range dim %d [%g,%g)", j, lo[j], hi[j]))
		}
	}
	return &GridBuilder{Lo: vec.Clone(lo), Hi: vec.Clone(hi), Bins: bins}
}

// FixedSupport implements FixedSupport: every center is a cell center.
func (gb *GridBuilder) FixedSupport() bool { return true }

// Build implements Builder.
func (gb *GridBuilder) Build(b bag.Bag) (Signature, error) {
	if b.Len() == 0 {
		return Signature{}, fmt.Errorf("signature: cannot summarize empty bag (t=%d)", b.T)
	}
	d := b.Dim()
	if d != len(gb.Lo) {
		return Signature{}, fmt.Errorf("signature: grid builder is %d-D but bag is %d-D", len(gb.Lo), d)
	}
	type cell struct {
		count  float64
		center []float64
	}
	cells := map[string]*cell{}
	// Cells are emitted in first-occupied order, which is a deterministic
	// function of the bag: iterating the map directly would permute the
	// signature entries per call, and while EMD is mathematically
	// invariant to entry order, the simplex pivot order (and hence the
	// floating-point rounding) is not — bit-identity contracts depend on
	// a stable order.
	var order []*cell
	key := make([]byte, 0, d*4)
	idx := make([]int, d)
	for _, p := range b.Points {
		key = key[:0]
		for j := 0; j < d; j++ {
			width := (gb.Hi[j] - gb.Lo[j]) / float64(gb.Bins)
			k := int((p[j] - gb.Lo[j]) / width)
			if k < 0 {
				k = 0
			}
			if k >= gb.Bins {
				k = gb.Bins - 1
			}
			idx[j] = k
			key = append(key, byte(k), byte(k>>8), byte(k>>16), 0xff)
		}
		c, ok := cells[string(key)]
		if !ok {
			center := make([]float64, d)
			for j := 0; j < d; j++ {
				width := (gb.Hi[j] - gb.Lo[j]) / float64(gb.Bins)
				center[j] = gb.Lo[j] + (float64(idx[j])+0.5)*width
			}
			c = &cell{center: center}
			cells[string(key)] = c
			order = append(order, c)
		}
		c.count++
	}
	s := Signature{
		Centers: make([][]float64, 0, len(order)),
		Weights: make([]float64, 0, len(order)),
	}
	for _, c := range order {
		s.Centers = append(s.Centers, c.center)
		s.Weights = append(s.Weights, c.count)
	}
	return s, nil
}

// BuildSequence applies builder to every bag of seq, returning one
// signature per bag. It stops at the first failing bag.
func BuildSequence(builder Builder, seq bag.Sequence) ([]Signature, error) {
	out := make([]Signature, len(seq))
	for i, b := range seq {
		s, err := builder.Build(b)
		if err != nil {
			return nil, fmt.Errorf("bag %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}
