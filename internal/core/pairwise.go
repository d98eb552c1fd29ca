// Tiled, shardable pairwise-EMD subsystem.
//
// The Fig. 6 dissimilarity matrix — EMD between every pair of bags of a
// corpus — is the gateway to the paper's corpus-scale analyses (MDS
// embedding, retrospective segmentation). A flat n(n−1)/2 job queue
// stops scaling once n passes a few thousand: the per-pair channel
// hand-off dominates cheap distances, the [][]float64 result is an
// allocation storm, and one machine owns the whole triangle.
//
// This file replaces it with a tiled engine:
//
//   - the upper triangle is partitioned into T×T tiles, so a worker
//     streaming over one tile touches at most 2T resident signatures
//     (cache reuse) and claims work one tile at a time with a single
//     atomic increment instead of one channel operation per pair;
//   - each worker owns a prewarmed emd.Solver, and the result is a flat
//     row-major PairwiseMatrix (one allocation) with a Rows()
//     compatibility view;
//   - the tile grid is the unit of multi-host sharding: WithShard(i, k)
//     deterministically assigns every k-th tile to shard i, each shard
//     emits a mergeable PartialMatrix, and MergePairwise reassembles the
//     full matrix — bit-identical to a single-process run.
//
// Determinism contract: the computed matrix is a pure function of the
// signatures and the ground distance. Tile size, worker count, and shard
// layout are pure throughput/topology knobs — every cell is computed
// exactly once, by exactly one worker, with a solver whose result does
// not depend on what it solved before, so all configurations produce
// bit-identical matrices (this is property-tested). Signature
// construction is deterministic too: bag i is built by a factory builder
// seeded with randx.SplitSeed(seed, i) regardless of worker count or
// shard.
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
// capped at MaxTileSize for cache residency. The rule depends only on
// n, never on the machine, so independent shard processes derive the
// same grid.
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

// Rows returns an [][]float64 view of the matrix for callers that
// predate PairwiseMatrix (mds.Embed, plot.Heatmap). The rows alias the flat storage — they are views, not copies.
func (m *PairwiseMatrix) Rows() [][]float64 { return m.rows }

// PartialMatrix is one shard's contribution to a pairwise matrix: the
// packed cells of the tiles assigned to that shard. Partials are plain
// data (JSON-serializable) so independent processes or hosts can each
// compute one shard and a collector can MergePairwise them. Values[t]
// holds tile TileIDs[t]'s upper-triangle cells in row-major tile order.
type PartialMatrix struct {
	N          int         `json:"n"`
	TileSize   int         `json:"tile_size"`
	ShardIndex int         `json:"shard_index"`
	ShardCount int         `json:"shard_count"`
	TileIDs    []int       `json:"tile_ids"`
	Values     [][]float64 `json:"values"`
}

// pairwiseCfg is the resolved option set of one Pairwise/PairwiseShard
// call.
type pairwiseCfg struct {
	tile        int
	workers     int
	shardIdx    int
	shardCnt    int
	factory     signature.BuilderFactory
	factorySeed int64
	ground      emd.Ground
	rawMass     bool
	cacheSlots  int   // ground-cost cache slots per worker; < 0 disables
	err         error // first option error, reported at the call site
}

// PairwiseOpt configures Pairwise and PairwiseShard.
type PairwiseOpt func(*pairwiseCfg)

func (c *pairwiseCfg) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// WithTileSize sets the tile edge T: workers claim T×T blocks of the
// upper triangle, streaming over at most 2T resident signatures per
// tile. 0 (the default) selects autoTileSize(n) — a pure function of n,
// capped at MaxTileSize. Tile size never affects the computed values,
// but all shards of one sharded run must use the same tile size so
// their tile grids align (the automatic rule guarantees this as long as
// the shards see the same corpus).
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

// WithShard assigns this call the tiles of shard index out of count
// total shards: tiles are enumerated in deterministic grid order and
// dealt round-robin, so the k shards of one layout partition the
// triangle exactly. Use with PairwiseShard; Pairwise (which returns the
// complete matrix) only accepts the trivial 0-of-1 layout.
func WithShard(index, count int) PairwiseOpt {
	return func(c *pairwiseCfg) {
		if count < 1 || index < 0 || index >= count {
			c.fail("core: invalid shard %d of %d (want 0 <= index < count)", index, count)
			return
		}
		c.shardIdx, c.shardCnt = index, count
	}
}

// WithPairBuilderFactory sets how signatures are built (required):
// signature.BuildSequenceParallel builds bag i with a builder seeded by
// randx.SplitSeed(seed, i). The result is a pure function of (factory,
// seed, seq) — independent of worker count and, crucially, identical on
// every shard of a multi-process run.
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

// WithPairEMDCostCache sizes the ground-cost cache each worker solver
// holds: a tile revisits its ≤2T resident signatures O(T) times, so
// cached cost rows turn most of a tile's ground-distance work into
// lookups (with stable-support builders — histogram, grid — a single
// cached matrix serves the whole tile). 0 (the default) selects
// emd.DefaultCostCacheSlots, a positive value is the per-worker slot
// count, and a negative value disables caching. The cache is
// bit-transparent — the matrix is identical with caching on or off —
// so it does not have to agree across the shards of a sharded run.
func WithPairEMDCostCache(n int) PairwiseOpt {
	return func(c *pairwiseCfg) { c.cacheSlots = n }
}

func resolvePairwise(opts []PairwiseOpt) (pairwiseCfg, error) {
	cfg := pairwiseCfg{shardCnt: 1}
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

// tileID is the canonical id of tile (a, b) in an nt×nt grid. Ids are
// what PartialMatrix carries across processes, so they must be stable
// for a given (n, tileSize).
func tileID(a, b, nt int) int { return a*nt + b }

// shardTiles enumerates the upper-triangle tiles of the grid in
// deterministic order (row-major over a <= b) and keeps every
// shardCnt-th one starting at shardIdx — the round-robin deal that
// balances diagonal (half) tiles and full tiles across shards.
func shardTiles(n, tile, shardIdx, shardCnt int) []tileRef {
	nt := tileGrid(n, tile)
	var tiles []tileRef
	rank := 0
	for a := 0; a < nt; a++ {
		for b := a; b < nt; b++ {
			if rank%shardCnt == shardIdx {
				tiles = append(tiles, tileRef{a, b})
			}
			rank++
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

// packedTileLen returns the number of upper-triangle cells in tile tl.
func packedTileLen(n, tile int, tl tileRef) int {
	iLo, iHi := tl.a*tile, min((tl.a+1)*tile, n)
	jHi := min((tl.b+1)*tile, n)
	if tl.a != tl.b {
		return (iHi - iLo) * (jHi - tl.b*tile)
	}
	ln := 0
	for i := iLo; i < iHi; i++ {
		ln += jHi - (i + 1)
	}
	return ln
}

// computeTiles computes the upper-triangle cells of every tile in
// tiles. Exactly one of the two destinations is used: with flat != nil
// (the full-matrix path) cells land at flat[i*n+j]; otherwise (the
// shard path) each tile is written to its own packed buffer in
// packed[ti] — a shard never allocates the full n² matrix, only the
// O(n²/k) cells it owns.
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
func computeTiles(sigs []signature.Signature, flat []float64, packed [][]float64, tiles []tileRef, cfg *pairwiseCfg) error {
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
			var dst []float64
			k := 0
			if flat == nil {
				dst = make([]float64, packedTileLen(n, cfg.tile, tl))
				packed[ti] = dst
			}
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
					if flat != nil {
						flat[i*n+j] = dist
					} else {
						dst[k] = dist
						k++
					}
				}
			}
		}
	}

	// Each worker gets its own solver and (unless disabled) its own
	// tile-local ground-cost cache: a tile revisits its ≤2T resident
	// signatures O(T) times, so cached cost rows serve most of its solves.
	// The cache is prewarmed for the corpus dimensionality so the sweep
	// stays allocation-free after warm-up.
	dim := 0
	if n > 0 {
		dim = sigs[0].Dim()
	}
	newWorkerSolver := func() *emd.Solver {
		sv := emd.NewSolver()
		if cfg.cacheSlots >= 0 {
			cc := emd.NewCostCache(cfg.cacheSlots)
			cc.Prewarm(maxLen, dim)
			sv.SetCostCache(cc)
		}
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
// seq with the tiled engine. See the package comment of this file for
// the determinism contract; WithShard layouts other than the trivial
// 0-of-1 must go through PairwiseShard + MergePairwise.
func Pairwise(seq bag.Sequence, opts ...PairwiseOpt) (*PairwiseMatrix, error) {
	cfg, err := resolvePairwise(opts)
	if err != nil {
		return nil, err
	}
	if cfg.shardCnt != 1 {
		return nil, fmt.Errorf("core: Pairwise computes the complete matrix; use PairwiseShard for shard %d of %d", cfg.shardIdx, cfg.shardCnt)
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
	if err := computeTiles(sigs, m.data, nil, shardTiles(n, cfg.tile, 0, 1), &cfg); err != nil {
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

// PairwiseShard computes one shard's tiles (selected with WithShard) and
// returns them as a mergeable PartialMatrix. Every shard builds all n
// signatures — O(n) work, deterministic across shards via the factory's
// per-bag split seeds — while the O(n²) distance work is what the shard
// layout divides. Run the k shards anywhere (goroutines, processes,
// hosts), then reassemble with MergePairwise.
func PairwiseShard(seq bag.Sequence, opts ...PairwiseOpt) (*PartialMatrix, error) {
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
	tiles := shardTiles(n, cfg.tile, cfg.shardIdx, cfg.shardCnt)
	// The shard computes straight into per-tile packed buffers: its
	// memory is O(n²/shardCount), never the full matrix.
	packed := make([][]float64, len(tiles))
	if err := computeTiles(sigs, nil, packed, tiles, &cfg); err != nil {
		return nil, err
	}

	nt := tileGrid(n, cfg.tile)
	p := &PartialMatrix{
		N:          n,
		TileSize:   cfg.tile,
		ShardIndex: cfg.shardIdx,
		ShardCount: cfg.shardCnt,
		TileIDs:    make([]int, 0, len(tiles)),
		Values:     packed,
	}
	for _, tl := range tiles {
		p.TileIDs = append(p.TileIDs, tileID(tl.a, tl.b, nt))
	}
	return p, nil
}

// MergePairwise reassembles the full matrix from the partials of every
// shard of one layout. It validates that the partials agree on (n, tile
// size) and that their tiles cover the upper-triangle grid exactly once
// — a missing or duplicated tile is an error, not a silent zero block.
// The merged matrix is bit-identical to a single-process Pairwise run
// with the same signature configuration.
func MergePairwise(parts ...*PartialMatrix) (*PairwiseMatrix, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: MergePairwise needs at least one partial")
	}
	n, tile := parts[0].N, parts[0].TileSize
	if n < 0 || tile < 1 {
		return nil, fmt.Errorf("core: invalid partial header (n=%d, tile=%d)", n, tile)
	}
	nt := tileGrid(n, tile)
	m := newPairwiseMatrix(n)
	seen := make(map[int]bool, nt*(nt+1)/2)
	for pi, p := range parts {
		if p.N != n || p.TileSize != tile {
			return nil, fmt.Errorf("core: partial %d has layout (n=%d, tile=%d), want (n=%d, tile=%d)", pi, p.N, p.TileSize, n, tile)
		}
		if len(p.TileIDs) != len(p.Values) {
			return nil, fmt.Errorf("core: partial %d carries %d tile ids but %d value blocks", pi, len(p.TileIDs), len(p.Values))
		}
		for ti, id := range p.TileIDs {
			if nt == 0 {
				// n=0 yields an empty grid; a partial carrying tiles anyway
				// is corrupt, and id/nt below would divide by zero.
				return nil, fmt.Errorf("core: partial %d declares n=0 but carries tile %d", pi, id)
			}
			a, b := id/nt, id%nt
			if id < 0 || a > b || b >= nt {
				return nil, fmt.Errorf("core: partial %d: tile id %d is outside the %d×%d upper-triangle grid", pi, id, nt, nt)
			}
			if seen[id] {
				return nil, fmt.Errorf("core: tile %d covered twice (shards must partition the grid)", id)
			}
			seen[id] = true
			if err := unpackTile(m.data, n, tile, tileRef{a, b}, p.Values[ti]); err != nil {
				return nil, fmt.Errorf("core: partial %d tile %d: %w", pi, id, err)
			}
		}
	}
	if want := nt * (nt + 1) / 2; len(seen) != want {
		for a := 0; a < nt; a++ {
			for b := a; b < nt; b++ {
				if !seen[tileID(a, b, nt)] {
					return nil, fmt.Errorf("core: tile %d missing (%d of %d covered); run every shard of the layout", tileID(a, b, nt), len(seen), want)
				}
			}
		}
	}
	// Mirror the upper triangle into the lower one.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.data[j*n+i] = m.data[i*n+j]
		}
	}
	return m, nil
}

// unpackTile writes a packed tile back into the flat n×n buffer,
// inverting packTile.
func unpackTile(data []float64, n, tile int, tl tileRef, vals []float64) error {
	iLo, iHi := tl.a*tile, min((tl.a+1)*tile, n)
	jHi := min((tl.b+1)*tile, n)
	k := 0
	for i := iLo; i < iHi; i++ {
		jLo := tl.b * tile
		if tl.a == tl.b {
			jLo = i + 1
		}
		w := jHi - jLo
		if k+w > len(vals) {
			return fmt.Errorf("packed tile too short: %d values", len(vals))
		}
		copy(data[i*n+jLo:i*n+jHi], vals[k:k+w])
		k += w
	}
	if k != len(vals) {
		return fmt.Errorf("packed tile has %d values, want %d", len(vals), k)
	}
	return nil
}
