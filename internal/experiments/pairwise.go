package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/signature"
)

// PairwiseScaleOptions sizes the tiled pairwise-EMD demonstration. The
// corpus is a pure function of (seed, options).
type PairwiseScaleOptions struct {
	// N is the number of bags in the corpus (default 192).
	N int
	// PointsPerBag is the number of 2-D points per bag (default 40).
	PointsPerBag int
	// Bins is the per-dimension grid resolution of the signature builder
	// (default 6; the grid builder is deterministic, so the flat and
	// tiled paths see identical signatures).
	Bins int
	// Workers bounds the tile workers (default 0 → GOMAXPROCS).
	Workers int
}

func (o PairwiseScaleOptions) withDefaults() PairwiseScaleOptions {
	if o.N <= 0 {
		o.N = 192
	}
	if o.PointsPerBag <= 0 {
		o.PointsPerBag = 40
	}
	if o.Bins <= 0 {
		o.Bins = 6
	}
	return o
}

// pairwiseCorpus generates the demo corpus: N bags of 2-D Gaussian
// points whose mean walks through four regimes (so the matrix has the
// block structure of Fig. 6 at corpus scale). Deterministic in seed.
func pairwiseCorpus(seed int64, opts PairwiseScaleOptions) bag.Sequence {
	rng := randx.New(randx.SplitSeed(seed, 7001))
	seq := make(bag.Sequence, opts.N)
	for t := 0; t < opts.N; t++ {
		regime := 4 * t / opts.N
		mu := []float64{float64(regime%2) * 3, float64(regime/2) * 3}
		pts := make([][]float64, opts.PointsPerBag)
		for i := range pts {
			pts[i] = []float64{rng.Normal(mu[0], 1), rng.Normal(mu[1], 1)}
		}
		seq[t] = bag.New(t, pts)
	}
	return seq
}

func matricesIdentical(a, b *core.PairwiseMatrix) bool {
	if a.N() != b.N() {
		return false
	}
	da, db := a.Data(), b.Data()
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

func matrixStats(m *core.PairwiseMatrix) (mean, max float64) {
	n := m.N()
	if n < 2 {
		return 0, 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := m.At(i, j)
			sum += d
			max = math.Max(max, d)
		}
	}
	return sum / float64(n*(n-1)/2), max
}

// PairwiseScaleResult carries the rendered report plus headline numbers
// for programmatic checks.
type PairwiseScaleResult struct {
	Report string
	// SecondsSequential and SecondsParallel time the tiled matrix with
	// one worker vs. the full worker group.
	SecondsSequential float64
	SecondsParallel   float64
	// BitIdentical reports that worker count did not change a single bit.
	BitIdentical bool
}

// PairwiseScale exercises the tiled pairwise engine at corpus scale: an
// N-bag corpus is reduced to its full dissimilarity matrix once with one
// worker and once with the full worker group, for a throughput
// comparison and a bit-identity check. A matrix that depends on the
// worker count is an error; the result still carries the report.
func PairwiseScale(seed int64, opts PairwiseScaleOptions) (*PairwiseScaleResult, error) {
	opts = opts.withDefaults()
	seq := pairwiseCorpus(seed, opts)
	factory := signature.GridFactory([]float64{-4, -4}, []float64{7, 7}, opts.Bins)

	run := func(workers int) (*core.PairwiseMatrix, float64, error) {
		start := time.Now()
		m, err := core.Pairwise(seq, core.WithPairBuilderFactory(factory, 0), core.WithPairWorkers(workers))
		return m, time.Since(start).Seconds(), err
	}
	seqMat, seqSecs, err := run(1)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parMat, parSecs, err := run(workers)
	if err != nil {
		return nil, err
	}
	identical := matricesIdentical(seqMat, parMat)

	pairs := opts.N * (opts.N - 1) / 2
	var b strings.Builder
	b.WriteString(header("Pairwise EMD at corpus scale — tiled"))
	fmt.Fprintf(&b, "corpus: %d bags × %d points, grid %d² signatures, %d pairs\n",
		opts.N, opts.PointsPerBag, opts.Bins, pairs)
	fmt.Fprintf(&b, "  tiled, 1 worker:      %8.3fs  (%8.0f pairs/s)\n", seqSecs, float64(pairs)/seqSecs)
	fmt.Fprintf(&b, "  tiled, %2d workers:    %8.3fs  (%8.0f pairs/s, %.2fx)\n", workers, parSecs, float64(pairs)/parSecs, seqSecs/parSecs)
	fmt.Fprintf(&b, "  bit-identical across worker counts: %v\n", identical)
	mean, maxD := matrixStats(parMat)
	fmt.Fprintf(&b, "  mean off-diagonal EMD %.4f, max %.4f\n", mean, maxD)

	res := &PairwiseScaleResult{
		Report:            b.String(),
		SecondsSequential: seqSecs,
		SecondsParallel:   parSecs,
		BitIdentical:      identical,
	}
	if !identical {
		return res, fmt.Errorf("experiments: the %d-worker matrix differs from the 1-worker matrix", workers)
	}
	return res, nil
}
