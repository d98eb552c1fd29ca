// Tiled pairwise-EMD engine.
//
// The Fig. 6 dissimilarity matrix — EMD between every pair of bags of a
// corpus — feeds the paper's corpus-scale analyses (MDS embedding,
// retrospective segmentation). A flat n(n−1)/2 job queue stops scaling
// once n passes a few thousand: the per-pair channel hand-off dominates
// cheap distances and the [][]float64 result is an allocation storm.
//
// This file computes it with a tiled engine instead:
//
//   - the upper triangle is partitioned into T×T tiles, so a worker
//     streaming over one tile touches at most 2T resident signatures
//     (cache reuse) and claims work one tile at a time with a single
//     atomic increment instead of one channel operation per pair;
//   - each worker owns a prewarmed emd.Solver, and the result is a flat
//     row-major PairwiseMatrix (one allocation) whose Rows() are views
//     into that allocation.
//
// Determinism contract: the computed matrix is a pure function of the
// signatures and the ground distance. Tile size and worker count are
// pure throughput knobs — every cell is computed exactly once, by
// exactly one worker, with a solver whose result does not depend on
// what it solved before, so all configurations produce bit-identical
// matrices (this is property-tested). Signature construction is
// deterministic too: bag i is built by a factory builder seeded with
// randx.SplitSeed(seed, i) regardless of worker count.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bag"
	"repro/internal/emd"
	"repro/internal/signature"
)

// MaxTileSize caps the automatic tile edge: 2·64 signatures of typical
// size (≤ 128 centers) stay resident in L2 while a worker sweeps a
// tile. autoTileSize shrinks the tile below this for small corpora so
// the grid always has enough tiles to feed every worker.
const MaxTileSize = 64

// autoTileSize picks the tile edge when WithTileSize is not given: at
// least 16 tile rows (≥ 136 claimable tiles, so even a small corpus
// fans out across all workers instead of collapsing into one tile),
// capped at MaxTileSize for cache residency.
func autoTileSize(n int) int {
	t := (n + 15) / 16
	if t < 1 {
		t = 1
	}
	if t > MaxTileSize {
		t = MaxTileSize
	}
	return t
}

// PairwiseMatrix is the full symmetric n×n EMD matrix in one flat
// row-major allocation. At(i, j) is the distance between bags i and j;
// the diagonal is zero.
type PairwiseMatrix struct {
	n    int
	data []float64
	rows [][]float64 // Rows() view, built eagerly (so Rows is race-free)
}

// newPairwiseMatrix allocates a zeroed n×n matrix and its row view.
func newPairwiseMatrix(n int) *PairwiseMatrix {
	m := &PairwiseMatrix{n: n, data: make([]float64, n*n), rows: make([][]float64, n)}
	for i := 0; i < n; i++ {
		m.rows[i] = m.data[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// N returns the number of bags (matrix side length).
func (m *PairwiseMatrix) N() int { return m.n }

// At returns the distance between bags i and j.
func (m *PairwiseMatrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// Data returns the flat row-major backing slice (length n²). It is the
// live storage, not a copy.
func (m *PairwiseMatrix) Data() []float64 { return m.data }

// Rows returns the matrix as n row slices, the form mds.Embed,
// plot.Heatmap and Fig6DatasetResult.EMD take. Row i aliases
// Data()[i·n:(i+1)·n]: the rows are views, not copies.
func (m *PairwiseMatrix) Rows() [][]float64 { return m.rows }

// pairwiseCfg is the resolved option set of one Pairwise call.
type pairwiseCfg struct {
	tile        int
	workers     int
	factory     signature.BuilderFactory
	factorySeed int64
	ground      emd.Ground
	rawMass     bool
	err         error // first option error, reported at the call site
}

// PairwiseOpt configures Pairwise.
type PairwiseOpt func(*pairwiseCfg)

func (c *pairwiseCfg) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// WithTileSize sets the tile edge T: workers claim T×T blocks of the
// upper triangle, streaming over at most 2T resident signatures per
// tile. 0 (the default) selects autoTileSize(n) — a pure function of n,
// capped at MaxTileSize. Tile size never affects the computed values.
func WithTileSize(t int) PairwiseOpt {
	return func(c *pairwiseCfg) {
		if t < 0 {
			c.fail("core: tile size must be >= 0, got %d", t)
			return
		}
		c.tile = t
	}
}

// WithPairWorkers bounds the goroutines that compute tiles; <= 0 (the
// default) selects GOMAXPROCS. Worker count never affects the computed
// values.
func WithPairWorkers(n int) PairwiseOpt {
	return func(c *pairwiseCfg) { c.workers = n }
}

// WithPairBuilderFactory sets how signatures are built (required):
// signature.BuildSequenceParallel builds bag i with a builder seeded by
// randx.SplitSeed(seed, i). The result is a pure function of (factory,
// seed, seq), independent of worker count.
func WithPairBuilderFactory(f signature.BuilderFactory, seed int64) PairwiseOpt {
	return func(c *pairwiseCfg) {
		if f == nil {
			c.fail("core: pairwise builder factory must be non-nil")
			return
		}
		c.factory, c.factorySeed = f, seed
	}
}

// WithPairGround sets the EMD ground distance; nil (the default) selects
// Euclidean with its exact 1-D fast path.
func WithPairGround(g emd.Ground) PairwiseOpt {
	return func(c *pairwiseCfg) { c.ground = g }
}

// WithPairRawMass keeps raw signature masses instead of normalizing to
// unit total, enabling the partial-matching EMD between bags of
// different sizes.
func WithPairRawMass(raw bool) PairwiseOpt {
	return func(c *pairwiseCfg) { c.rawMass = raw }
}

func resolvePairwise(opts []PairwiseOpt) (pairwiseCfg, error) {
	var cfg pairwiseCfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return cfg, cfg.err
	}
	if cfg.factory == nil {
		return cfg, fmt.Errorf("core: pairwise needs WithPairBuilderFactory")
	}
	// cfg.tile == 0 stays 0 here: the automatic tile size depends on n,
	// which the call sites resolve once the signatures exist.
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return cfg, nil
}

// tileRef addresses one tile of the upper-triangle grid: tile rows
// [a·T, min((a+1)·T, n)) × tile cols [b·T, …), with a <= b.
type tileRef struct{ a, b int }

// tileGrid returns the number of tile rows/cols for n items at tile
// size t.
func tileGrid(n, t int) int {
	if n == 0 {
		return 0
	}
	return (n + t - 1) / t
}

// upperTiles enumerates the upper-triangle tiles of the grid in
// row-major order over a <= b.
func upperTiles(n, tile int) []tileRef {
	nt := tileGrid(n, tile)
	tiles := make([]tileRef, 0, nt*(nt+1)/2)
	for a := 0; a < nt; a++ {
		for b := a; b < nt; b++ {
			tiles = append(tiles, tileRef{a, b})
		}
	}
	return tiles
}

// pairwiseSignatures builds (and normalizes, unless rawMass) one
// signature per bag.
func pairwiseSignatures(seq bag.Sequence, cfg *pairwiseCfg) ([]signature.Signature, error) {
	sigs, err := signature.BuildSequenceParallel(cfg.factory, cfg.factorySeed, seq, cfg.workers)
	if err != nil {
		return nil, err
	}
	if !cfg.rawMass {
		for i := range sigs {
			sigs[i] = sigs[i].Normalized()
		}
	}
	return sigs, nil
}

// computeTiles computes the upper-triangle cells of every tile in
// tiles into flat[i*n+j].
//
// Workers claim tiles with an atomic counter; each owns a Solver
// prewarmed for the largest signature. The first error cancels the
// outstanding tiles: workers re-check the failure flag before every
// pair, so a failing ground distance stops the sweep promptly instead
// of draining the whole triangle.
//
// Every signature is validated ONCE up front (n checks instead of the
// 2(n−1) per-pair re-validations the flat queue paid), which lets the
// inner loop use the solver's validated entry point.
func computeTiles(sigs []signature.Signature, flat []float64, tiles []tileRef, cfg *pairwiseCfg) error {
	n := len(sigs)
	maxLen := 0
	for i, s := range sigs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("core: signature %d: %w", i, err)
		}
		if d := s.Dim(); d != sigs[0].Dim() {
			return fmt.Errorf("core: signature %d is %d-D but signature 0 is %d-D", i, d, sigs[0].Dim())
		}
		if l := s.Len(); l > maxLen {
			maxLen = l
		}
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	sweep := func(sv *emd.Solver) {
		for {
			ti := int(next.Add(1)) - 1
			if ti >= len(tiles) || failed.Load() {
				return
			}
			tl := tiles[ti]
			iLo, iHi := tl.a*cfg.tile, min((tl.a+1)*cfg.tile, n)
			jHi := min((tl.b+1)*cfg.tile, n)
			for i := iLo; i < iHi; i++ {
				jLo := tl.b * cfg.tile
				if tl.a == tl.b {
					jLo = i + 1 // diagonal tile: upper cells only
				}
				for j := jLo; j < jHi; j++ {
					if failed.Load() {
						return
					}
					dist, err := sv.DistanceValidated(sigs[i], sigs[j], cfg.ground)
					if err != nil {
						errOnce.Do(func() {
							firstErr = fmt.Errorf("core: EMD(%d,%d): %w", i, j, err)
						})
						failed.Store(true)
						return
					}
					flat[i*n+j] = dist
				}
			}
		}
	}

	// Each worker gets its own solver, prewarmed (with its cost cache, if
	// the builder's fixed support earns one) so the sweep stays
	// allocation-free after warm-up.
	opts := solverOptions(cfg.factory(0))
	newWorkerSolver := func() *emd.Solver {
		sv := emd.NewSolver(opts...)
		sv.Prewarm(maxLen)
		return sv
	}
	workers := cfg.workers
	if workers > len(tiles) {
		workers = len(tiles)
	}
	if workers <= 1 {
		sweep(newWorkerSolver())
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				sweep(newWorkerSolver())
			}()
		}
		wg.Wait()
	}
	return firstErr
}

// Pairwise computes the full symmetric EMD matrix between all bags of
// seq with the tiled engine. See the comment at the top of this file
// for the determinism contract.
func Pairwise(seq bag.Sequence, opts ...PairwiseOpt) (*PairwiseMatrix, error) {
	cfg, err := resolvePairwise(opts)
	if err != nil {
		return nil, err
	}
	sigs, err := pairwiseSignatures(seq, &cfg)
	if err != nil {
		return nil, err
	}
	n := len(sigs)
	if cfg.tile == 0 {
		cfg.tile = autoTileSize(n)
	}
	m := newPairwiseMatrix(n)
	if err := computeTiles(sigs, m.data, upperTiles(n, cfg.tile), &cfg); err != nil {
		return nil, err
	}
	// Mirror the upper triangle; the diagonal stays zero.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.data[j*n+i] = m.data[i*n+j]
		}
	}
	return m, nil
}
