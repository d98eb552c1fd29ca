package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bag"
	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/randx"
	"repro/internal/signature"
)

// seedEraPairwiseEMD is the flat pre-tile implementation (single
// n(n−1)/2 job queue, fully materialized [][]float64), kept verbatim in
// the test as the bit-identity oracle for the tiled engine.
func seedEraPairwiseEMD(builder signature.Builder, seq bag.Sequence, ground emd.Ground, rawMass bool) ([][]float64, error) {
	sigs, err := signature.BuildSequence(builder, seq)
	if err != nil {
		return nil, err
	}
	if !rawMass {
		for i := range sigs {
			sigs[i] = sigs[i].Normalized()
		}
	}
	n := len(sigs)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	type pair struct{ i, j int }
	jobs := make(chan pair, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	errOnce := sync.Once{}
	var firstErr error
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv := emd.NewSolver()
			for p := range jobs {
				if failed.Load() {
					continue
				}
				dist, err := sv.Distance(sigs[p.i], sigs[p.j], ground)
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("core: EMD(%d,%d): %w", p.i, p.j, err)
					})
					failed.Store(true)
					continue
				}
				m[p.i][p.j] = dist
				m[p.j][p.i] = dist
			}
		}()
	}
produce:
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if failed.Load() {
				break produce
			}
			jobs <- pair{i, j}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}

func assertMatrixEqualsRef(t *testing.T, label string, m *PairwiseMatrix, ref [][]float64) {
	t.Helper()
	if m.N() != len(ref) {
		t.Fatalf("%s: matrix size %d, want %d", label, m.N(), len(ref))
	}
	for i := range ref {
		for j := range ref[i] {
			if got := m.At(i, j); got != ref[i][j] {
				t.Fatalf("%s: cell (%d,%d) = %g, want %g (must be bit-identical)", label, i, j, got, ref[i][j])
			}
		}
	}
}

// TestPairwiseTiledBitIdenticalToFlat is the tentpole property test:
// the tiled matrix equals the flat seed-era implementation bit-for-bit for
// every tested tile size and worker count — tiling and parallelism are
// pure throughput knobs.
func TestPairwiseTiledBitIdenticalToFlat(t *testing.T) {
	const n = 23
	rng := randx.New(41)
	seq := gaussianSeq(rng, n, n/2, 40, 0, 4)
	factory := signature.HistogramFactory(-8, 12, 32) // deterministic: flat and tiled see the same signatures

	ref, err := seedEraPairwiseEMD(factory(0), seq, nil, false)
	if err != nil {
		t.Fatal(err)
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tile := range []int{1, 7, 64, n} {
		for _, workers := range workerCounts {
			label := fmt.Sprintf("tile=%d workers=%d", tile, workers)
			m, err := Pairwise(seq,
				WithPairBuilderFactory(factory, 0),
				WithTileSize(tile),
				WithPairWorkers(workers),
			)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertMatrixEqualsRef(t, label, m, ref)
		}
	}
}

// TestPairwiseFactoryPathDeterministic: the factory path is a pure
// function of (factory, seed, seq) — identical across worker counts and
// tile sizes even for the randomized k-means builder.
func TestPairwiseFactoryPathDeterministic(t *testing.T) {
	const n = 17
	rng := randx.New(43)
	seq := make(bag.Sequence, n)
	for ts := 0; ts < n; ts++ {
		pts := make([][]float64, 30)
		for i := range pts {
			pts[i] = rng.NormalVec(2, float64(ts/6), 1)
		}
		seq[ts] = bag.New(ts, pts)
	}
	factory := signature.KMeansFactory(6, cluster.Config{MaxIters: 25})
	const seed = 99

	ref, err := Pairwise(seq, WithPairBuilderFactory(factory, seed), WithPairWorkers(1), WithTileSize(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		for _, tile := range []int{1, 5, n} {
			m, err := Pairwise(seq, WithPairBuilderFactory(factory, seed), WithPairWorkers(workers), WithTileSize(tile))
			if err != nil {
				t.Fatal(err)
			}
			assertMatrixEqualsRef(t, fmt.Sprintf("factory tile=%d workers=%d", tile, workers), m, ref.Rows())
		}
	}
}

func TestPairwiseMatrixViews(t *testing.T) {
	rng := randx.New(45)
	seq := gaussianSeq(rng, 6, 3, 20, 0, 3)
	m, err := Pairwise(seq, WithPairBuilderFactory(signature.HistogramFactory(-8, 10, 24), 0))
	if err != nil {
		t.Fatal(err)
	}
	rows := m.Rows()
	if len(rows) != m.N() {
		t.Fatalf("Rows() has %d rows, want %d", len(rows), m.N())
	}
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != m.At(i, j) {
				t.Fatalf("Rows()[%d][%d] = %g, At = %g", i, j, rows[i][j], m.At(i, j))
			}
		}
	}
	if m.At(0, 0) != 0 || m.At(3, 3) != 0 {
		t.Error("diagonal must be zero")
	}
	if &m.Rows()[0][0] != &m.Data()[0] {
		t.Error("Rows() must be a view over the flat storage, not a copy")
	}
}

func TestPairwiseOptionValidation(t *testing.T) {
	seq := bag.Sequence{bag.FromScalars(0, []float64{1})}
	withHist := WithPairBuilderFactory(signature.HistogramFactory(0, 2, 2), 1)
	cases := map[string][]PairwiseOpt{
		"no builder":    {},
		"nil factory":   {WithPairBuilderFactory(nil, 1)},
		"negative tile": {withHist, WithTileSize(-1)},
	}
	for name, opts := range cases {
		if _, err := Pairwise(seq, opts...); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPairwiseEmptyAndSingle(t *testing.T) {
	factory := signature.HistogramFactory(0, 2, 2)
	m, err := Pairwise(bag.Sequence{}, WithPairBuilderFactory(factory, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 0 || len(m.Rows()) != 0 {
		t.Errorf("empty sequence: n=%d", m.N())
	}
	m, err = Pairwise(bag.Sequence{bag.FromScalars(0, []float64{1})}, WithPairBuilderFactory(factory, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 1 || m.At(0, 0) != 0 {
		t.Errorf("single bag: n=%d, diag=%g", m.N(), m.At(0, 0))
	}
}

// TestPairwiseTiledCancelsOnErrorWithoutLeaks extends the call-counting
// cancellation test to the tiled engine: a failing ground distance must
// cancel the outstanding tiles promptly (the ground runs for far fewer
// than all pairs) across tile sizes, and the worker goroutines must all
// exit — no leaks.
func TestPairwiseTiledCancelsOnErrorWithoutLeaks(t *testing.T) {
	const n = 48
	seq := make(bag.Sequence, n)
	for i := range seq {
		// Two points per bag so the Euclidean 1-D fast path is skipped in
		// favour of the simplex (which consults the ground distance).
		seq[i] = bag.New(i, [][]float64{{float64(i), 1}, {float64(i), 2}})
	}
	total := int64(n * (n - 1) / 2)
	for _, tile := range []int{1, 5, 64} {
		for _, workers := range []int{1, 4} {
			var groundCalls atomic.Int64
			ground := emd.Ground(func(a, b []float64) float64 {
				groundCalls.Add(1)
				return math.NaN() // poison: every pair fails
			})
			before := runtime.NumGoroutine()
			_, err := Pairwise(seq,
				WithPairBuilderFactory(badSigFactory(-1), 0),
				WithPairGround(ground),
				WithPairRawMass(true),
				WithTileSize(tile),
				WithPairWorkers(workers),
			)
			if err == nil {
				t.Fatalf("tile=%d workers=%d: expected error from poisoned ground", tile, workers)
			}
			if calls := groundCalls.Load(); calls >= total/2 {
				t.Errorf("tile=%d workers=%d: ground ran %d times; want far fewer than the full %d pairs (cancellation failed)",
					tile, workers, calls, total)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Errorf("tile=%d workers=%d: %d goroutines before, %d after — workers leaked", tile, workers, before, now)
			}
		}
	}
}

// TestAutoTileSizeFeedsWorkers guards against the small-corpus
// parallelism collapse: the automatic tile size must yield enough tiles
// that a Fig. 6-sized corpus (n=20) still fans out across workers,
// instead of one 64-edge tile pinning all n(n−1)/2 solves to a single
// goroutine.
func TestAutoTileSizeFeedsWorkers(t *testing.T) {
	for _, n := range []int{2, 20, 64, 512, 100000} {
		tile := autoTileSize(n)
		if tile < 1 || tile > MaxTileSize {
			t.Fatalf("autoTileSize(%d) = %d, want in [1, %d]", n, tile, MaxTileSize)
		}
		if n >= 16 {
			if tiles := len(upperTiles(n, tile)); tiles < 16 {
				t.Errorf("n=%d: only %d tiles at auto tile %d; small corpora must still feed all workers", n, tiles, tile)
			}
		}
	}
	if autoTileSize(100000) != MaxTileSize {
		t.Errorf("large n must cap at MaxTileSize")
	}
}

// TestPairwiseMatrixRowsConcurrent: Rows() is built eagerly, so
// concurrent readers on a shared matrix must be race-free (this test
// exists to fail under -race if the view ever becomes lazy again).
func TestPairwiseMatrixRowsConcurrent(t *testing.T) {
	rng := randx.New(47)
	seq := gaussianSeq(rng, 8, 4, 20, 0, 3)
	m, err := Pairwise(seq, WithPairBuilderFactory(signature.HistogramFactory(-8, 10, 16), 0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := m.Rows()
			if rows[1][2] != m.At(1, 2) {
				t.Error("Rows() view inconsistent")
			}
		}()
	}
	wg.Wait()
}
