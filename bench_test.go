package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (running the same drivers as cmd/repro at a reduced scale so
// the suite completes in minutes), micro-benchmarks for the pipeline
// stages, and the ablation benches called out in DESIGN.md §5.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bag"
	"repro/internal/baseline"
	"repro/internal/bipartite"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/emd"
	"repro/internal/enron"
	"repro/internal/experiments"
	"repro/internal/featsel"
	"repro/internal/infoest"
	"repro/internal/innovate"
	"repro/internal/randx"
	"repro/internal/signature"
	"repro/internal/synth"
)

// --- Per-figure benchmarks -------------------------------------------------

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := experiments.Table1Report(); len(rep) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	opts := experiments.Fig7Options{
		Subjects:            1,
		Replicates:          200,
		MeanRecordsPerBag:   200,
		MeanBagsPerActivity: 10,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(int64(i+1), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	opts := experiments.Fig10Options{
		Graph:      bipartite.Section53Options{NodeLambda: 30, Steps: 120, TotalWeight: 6000},
		Replicates: 200,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(int64(i+1), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	opts := experiments.Fig11Options{
		Corpus:     enron.Config{Employees: 40},
		Replicates: 200,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(int64(i+1), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pipeline micro-benchmarks ----------------------------------------------

// randomSignature builds a K-center d-dimensional signature.
func randomSignature(rng *randx.RNG, k, d int) signature.Signature {
	s := signature.Signature{Weights: make([]float64, k)}
	total := 0.0
	for i := 0; i < k; i++ {
		s.Centers = append(s.Centers, rng.NormalVec(d, 0, 3))
		s.Weights[i] = rng.Gamma(1, 1) + 0.01
		total += s.Weights[i]
	}
	for i := range s.Weights {
		s.Weights[i] /= total
	}
	return s
}

func benchmarkEMD(b *testing.B, k, d int) {
	rng := randx.New(1)
	s := randomSignature(rng, k, d)
	t := randomSignature(rng, k, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emd.Distance(s, t, emd.Euclidean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMDSimplexK8(b *testing.B)  { benchmarkEMD(b, 8, 2) }
func BenchmarkEMDSimplexK16(b *testing.B) { benchmarkEMD(b, 16, 2) }
func BenchmarkEMDSimplexK32(b *testing.B) { benchmarkEMD(b, 32, 2) }
func BenchmarkEMDSimplexK64(b *testing.B) { benchmarkEMD(b, 64, 2) }

// The large-signature sizes; BENCH_PR5.json records the block-pricing
// before/after comparison against the retired full-refill solver, and
// BENCH_PR14.json the one-path rows at every K.
func BenchmarkEMDSimplexK128(b *testing.B) { benchmarkEMD(b, 128, 2) }
func BenchmarkEMDSimplexK256(b *testing.B) { benchmarkEMD(b, 256, 2) }
func BenchmarkEMDSimplexK512(b *testing.B) { benchmarkEMD(b, 512, 2) }

// benchmarkEMDSolver measures the explicitly-held warm Solver (the
// detector's steady-state path), bypassing even the sync.Pool rental of
// the package-level Distance.
func benchmarkEMDSolver(b *testing.B, k, d int) {
	rng := randx.New(1)
	s := randomSignature(rng, k, d)
	t := randomSignature(rng, k, d)
	sv := emd.NewSolver()
	if _, err := sv.Distance(s, t, emd.Euclidean); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Distance(s, t, emd.Euclidean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMDSolverWarmK16(b *testing.B) { benchmarkEMDSolver(b, 16, 2) }
func BenchmarkEMDSolverWarmK32(b *testing.B) { benchmarkEMDSolver(b, 32, 2) }
func BenchmarkEMDSolverWarmK64(b *testing.B) { benchmarkEMDSolver(b, 64, 2) }

func BenchmarkEMD1DFastPath(b *testing.B) {
	rng := randx.New(2)
	s := randomSignature(rng, 32, 1)
	t := randomSignature(rng, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emd.Distance1D(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMD1DViaSimplex is the ablation partner of the fast path: the
// same 1-D instances solved by the general transportation simplex.
func BenchmarkEMD1DViaSimplex(b *testing.B) {
	rng := randx.New(2)
	s := randomSignature(rng, 32, 1)
	t := randomSignature(rng, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emd.Distance(s, t, emd.Euclidean); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansSignature(b *testing.B) {
	rng := randx.New(3)
	pts := make([][]float64, 1000)
	for i := range pts {
		pts[i] = rng.NormalVec(4, 0, 1)
	}
	bg := bag.New(0, pts)
	builder := KMeansFactory(8)(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(bg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramSignature(b *testing.B) {
	rng := randx.New(4)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.Normal(0, 1)
	}
	bg := bag.FromScalars(0, vals)
	builder := NewHistogramBuilder(-5, 5, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapCI measures one full confidence interval (T=1000) on
// a precomputed 10×10 log-distance window — the per-step cost of the
// adaptive threshold.
func BenchmarkBootstrapCI(b *testing.B) {
	rng := randx.New(5)
	n := 10
	logD := make([][]float64, n)
	for i := range logD {
		logD[i] = make([]float64, n)
		for j := range logD[i] {
			if i != j {
				logD[i][j] = rng.Normal(0, 1)
			}
		}
	}
	win := infoest.Window{LogD: logD, NRef: 5, NTest: 5}
	score := func(gRef, gTest []float64) float64 { return infoest.ScoreKL(win, gRef, gTest) }
	base := infoest.UniformWeights(5)
	cfg := bootstrap.Config{Replicates: 1000}
	est := bootstrap.NewSeededEstimator(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Interval(score, base, base, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorPush measures the steady-state streaming cost per bag
// (signature build + τ+τ′−1 EMDs + bootstrap CI).
func BenchmarkDetectorPush(b *testing.B) {
	rng := randx.New(6)
	det, err := NewDetector(Config{
		Tau: 5, TauPrime: 5,
		Builder:   NewHistogramBuilder(-5, 5, 40),
		Bootstrap: BootstrapConfig{Replicates: 1000},
	})
	if err != nil {
		b.Fatal(err)
	}
	bags := make([]Bag, 64)
	for t := range bags {
		vals := make([]float64, 300)
		for i := range vals {
			vals[i] = rng.Normal(0, 1)
		}
		bags[t] = BagFromScalars(t, vals)
	}
	// Warm the window.
	for t := 0; t < 16; t++ {
		if _, err := det.Push(bags[t%len(bags)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Push(bags[i%len(bags)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorPushKMeans measures a steady-state push in the
// bagbench serve-kmeans shape: 3-D bags of 120 points, K=16 k-means
// signatures, Euclidean simplex EMD, τ=τ′=4, T=100, default cost-cache
// setting.
func BenchmarkDetectorPushKMeans(b *testing.B) {
	rng := randx.New(6)
	det, err := NewDetector(Config{
		Tau: 4, TauPrime: 4,
		Builder:   KMeansFactory(16)(11),
		Bootstrap: BootstrapConfig{Replicates: 100},
	})
	if err != nil {
		b.Fatal(err)
	}
	bags := make([]Bag, 64)
	for t := range bags {
		pts := make([][]float64, 120)
		for i := range pts {
			pts[i] = rng.NormalVec(3, 0, 1)
		}
		bags[t] = bag.New(t, pts)
	}
	for t := 0; t < 16; t++ { // warm the window
		if _, err := det.Push(bags[t%len(bags)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Push(bags[i%len(bags)]); err != nil {
			b.Fatal(err)
		}
	}
}

// variableSupport hides a builder's signature.FixedSupport method, so
// the detector or pairwise worker over it runs without a cost cache.
type variableSupport struct{ Builder }

// benchBuilder returns b, or b with its fixed support hidden when hide
// is set: the "/nocache" row of a cache/nocache benchmark pair.
func benchBuilder(b Builder, hide bool) Builder {
	if hide {
		return variableSupport{b}
	}
	return b
}

// BenchmarkDetectorPushHistogram is the ground-cost cache's acceptance
// benchmark: a histogram builder emits bit-identical supports (bin
// midpoints) for every bag, so one cache entry serves all τ+τ′−1 EMDs
// of every Push, and the Manhattan ground forces the 1-D signatures
// through the simplex (Euclidean would take the closed form and never
// price a cost matrix). BENCH_PR6.json records cache vs nocache; the
// contract is cache ≥ 2× on this workload.
func BenchmarkDetectorPushHistogram(b *testing.B) {
	for _, tc := range []struct {
		name string
		hide bool // hide the builder's fixed support: no cost cache
	}{{"cache", false}, {"nocache", true}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := randx.New(6)
			det, err := NewDetector(Config{
				Tau: 8, TauPrime: 8,
				Builder:   benchBuilder(NewHistogramBuilder(0, 1, 64), tc.hide),
				Ground:    emd.Manhattan,
				Bootstrap: BootstrapConfig{Replicates: 100},
			})
			if err != nil {
				b.Fatal(err)
			}
			bags := make([]Bag, 64)
			for t := range bags {
				vals := make([]float64, 800) // 800 uniform draws keep all 64 bins occupied
				for i := range vals {
					vals[i] = rng.Float64()
				}
				bags[t] = BagFromScalars(t, vals)
			}
			for t := 0; t < 20; t++ { // warm the window
				if _, err := det.Push(bags[t%len(bags)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Push(bags[i%len(bags)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectorPushMixedSupport measures the cost cache on its
// adversarial workload: a k-means builder emits a distinct support set
// per bag, so the window's τ+τ′−1 solves per push never hit. A detector
// attaches a cache only for fixed-support builders, so both rows run
// without one; "/nocache" wraps the builder like the other pairs, which
// changes nothing for k-means. BENCH_PR6.json recorded the gap when
// every builder was cached.
func BenchmarkDetectorPushMixedSupport(b *testing.B) {
	for _, tc := range []struct {
		name string
		hide bool // hide the builder's fixed support: no cost cache
	}{{"cache", false}, {"nocache", true}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := randx.New(6)
			det, err := NewDetector(Config{
				Tau: 8, TauPrime: 8,
				Builder:   benchBuilder(KMeansFactory(16)(11), tc.hide),
				Ground:    emd.Manhattan,
				Bootstrap: BootstrapConfig{Replicates: 100},
			})
			if err != nil {
				b.Fatal(err)
			}
			bags := make([]Bag, 64)
			for t := range bags {
				vals := make([]float64, 300)
				for i := range vals {
					vals[i] = rng.Normal(0, 1)
				}
				bags[t] = BagFromScalars(t, vals)
			}
			for t := 0; t < 20; t++ { // warm the window
				if _, err := det.Push(bags[t%len(bags)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := det.Push(bags[i%len(bags)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks (DESIGN.md §5) --------------------------------------

// ablationSequence is a shared mean-shift workload for the ablations.
func ablationSequence(seed int64, n, size int) bag.Sequence {
	rng := randx.New(seed)
	seq := make(bag.Sequence, n)
	for t := 0; t < n; t++ {
		mu := 0.0
		if t >= n/2 {
			mu = 4
		}
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		seq[t] = bag.FromScalars(t, vals)
	}
	return seq
}

// BenchmarkAblationScores compares the two change-point scores end to end.
func BenchmarkAblationScores(b *testing.B) {
	seq := ablationSequence(7, 30, 200)
	for _, tc := range []struct {
		name, stat string
	}{{"KL", "kl"}, {"LR", "lr"}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{
				Tau: 5, TauPrime: 5, Statistic: tc.stat,
				Builder:   NewHistogramBuilder(-5, 9, 40),
				Bootstrap: BootstrapConfig{Replicates: 500},
			}
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSignatureK sweeps the quantization fineness: larger K
// means richer signatures but quadratically more expensive EMD.
func BenchmarkAblationSignatureK(b *testing.B) {
	rng := randx.New(8)
	seq := make(bag.Sequence, 24)
	for t := range seq {
		mu := 0.0
		if t >= 12 {
			mu = 3
		}
		pts := make([][]float64, 200)
		for i := range pts {
			pts[i] = []float64{rng.Normal(mu, 1), rng.Normal(-mu, 1)}
		}
		seq[t] = bag.New(t, pts)
	}
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(map[int]string{4: "K4", 8: "K8", 16: "K16", 32: "K32"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Config{
					Tau: 5, TauPrime: 5,
					Builder:   KMeansFactory(k)(int64(i)),
					Bootstrap: BootstrapConfig{Replicates: 300},
				}
				if _, err := Run(cfg, seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBootstrapT sweeps the bootstrap size: the CI cost is
// linear in T and independent of bag sizes.
func BenchmarkAblationBootstrapT(b *testing.B) {
	seq := ablationSequence(9, 24, 200)
	for _, replicates := range []int{100, 1000, 5000} {
		b.Run(map[int]string{100: "T100", 1000: "T1000", 5000: "T5000"}[replicates], func(b *testing.B) {
			cfg := Config{
				Tau: 5, TauPrime: 5,
				Builder:   NewHistogramBuilder(-5, 9, 40),
				Bootstrap: BootstrapConfig{Replicates: replicates},
			}
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWeighting compares uniform and discounted base weights.
func BenchmarkAblationWeighting(b *testing.B) {
	seq := ablationSequence(10, 24, 200)
	for _, tc := range []struct {
		name string
		w    core.Weighting
	}{{"uniform", core.WeightUniform}, {"discounted", core.WeightDiscounted}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{
				Tau: 5, TauPrime: 5, Weighting: tc.w,
				Builder:   NewHistogramBuilder(-5, 9, 40),
				Bootstrap: BootstrapConfig{Replicates: 500},
			}
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSection51Generation isolates workload generation cost.
func BenchmarkSection51Generation(b *testing.B) {
	rng := randx.New(11)
	for i := 0; i < b.N; i++ {
		for _, d := range synth.AllSection51() {
			if _, err := d.Generate(rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBipartiteFeatures isolates graph feature extraction.
func BenchmarkBipartiteFeatures(b *testing.B) {
	rng := randx.New(12)
	graphs, err := bipartite.TrafficVolume.Generate(rng,
		bipartite.Section53Options{NodeLambda: 100, Steps: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range bipartite.AllFeatures() {
			if _, err := graphs[i%len(graphs)].FeatureBag(f, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Extension and utility benchmarks ----------------------------------------

// BenchmarkAblationReport times the full design-choice study of
// cmd/repro -exp ablation.
func BenchmarkAblationReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureSelection times featsel.Learn on a 45-bag, 8-D labeled
// history (the §6 extension).
func BenchmarkFeatureSelection(b *testing.B) {
	rng := randx.New(20)
	changes := []int{15, 30}
	seq := make(bag.Sequence, 45)
	for t := range seq {
		shift := 0.0
		for _, c := range changes {
			if t >= c {
				shift += 2
			}
		}
		pts := make([][]float64, 60)
		for i := range pts {
			p := make([]float64, 8)
			p[0] = rng.Normal(shift, 1)
			for j := 1; j < 8; j++ {
				p[j] = rng.Normal(0, 4)
			}
			pts[i] = p
		}
		seq[t] = bag.New(t, pts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := featsel.Learn(seq, changes, featsel.Config{Tau: 5, TauPrime: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhiten times AR(1) prewhitening of 30 bags of 400 samples.
func BenchmarkWhiten(b *testing.B) {
	rng := randx.New(21)
	seq := make(bag.Sequence, 30)
	for t := range seq {
		run := make([]float64, 400)
		for i := 1; i < len(run); i++ {
			run[i] = 0.8*run[i-1] + rng.Normal(0, 1)
		}
		seq[t] = bag.FromScalars(t, run)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := innovate.Whiten(seq, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairwiseEMD20 times the Fig. 6-style full distance matrix
// over 20 bags (parallel across cores).
func BenchmarkPairwiseEMD20(b *testing.B) {
	rng := randx.New(22)
	seq := make(bag.Sequence, 20)
	for t := range seq {
		pts := make([][]float64, 50)
		for i := range pts {
			pts[i] = rng.NormalVec(2, float64(t/10), 1)
		}
		seq[t] = bag.New(t, pts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Pairwise(seq, core.WithPairBuilderFactory(KMeansFactory(8), int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tiled vs. flat pairwise at corpus scale -------------------------------

// flatPairwiseEMD is the seed-era flat implementation (one channel job
// per pair, [][]float64 result), kept in the bench file as the baseline
// the tiled engine is measured against. It matches what the pairwise
// matrix was before the tiled rewrite; BENCH_PR3.json records the comparison.
func flatPairwiseEMD(sigs []signature.Signature, ground emd.Ground) ([][]float64, error) {
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
	var firstErr error
	var errOnce sync.Once
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
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					continue
				}
				m[p.i][p.j] = dist
				m[p.j][p.i] = dist
			}
		}()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
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

// pairwiseBenchCorpus builds the n-bag benchmark corpus: 1-D
// latency-style bags summarized by a 40-bin histogram, the workload
// where per-pair solver time is smallest and scheduling overhead is
// most visible.
func pairwiseBenchCorpus(n int) bag.Sequence {
	rng := randx.New(64)
	seq := make(bag.Sequence, n)
	for t := range seq {
		mu := float64(4 * t / n)
		vals := make([]float64, 80)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		seq[t] = bag.FromScalars(t, vals)
	}
	return seq
}

func benchmarkPairwiseFlat(b *testing.B, n int) {
	// Build signatures inside the loop, as the seed-era PairwiseEMD did
	// (sequential stateful-builder path) — both variants then time the
	// whole bags→matrix pipeline.
	seq := pairwiseBenchCorpus(n)
	hb := signature.NewHistogramBuilder(-6, 12, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigs, err := signature.BuildSequence(hb, seq)
		if err != nil {
			b.Fatal(err)
		}
		for j := range sigs {
			sigs[j] = sigs[j].Normalized()
		}
		if _, err := flatPairwiseEMD(sigs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkPairwiseTiled(b *testing.B, n int) {
	seq := pairwiseBenchCorpus(n)
	factory := signature.HistogramFactory(-6, 12, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Pairwise(seq, core.WithPairBuilderFactory(factory, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairwiseFlat64(b *testing.B)   { benchmarkPairwiseFlat(b, 64) }
func BenchmarkPairwiseTiled64(b *testing.B)  { benchmarkPairwiseTiled(b, 64) }
func BenchmarkPairwiseFlat256(b *testing.B)  { benchmarkPairwiseFlat(b, 256) }
func BenchmarkPairwiseTiled256(b *testing.B) { benchmarkPairwiseTiled(b, 256) }
func BenchmarkPairwiseFlat512(b *testing.B)  { benchmarkPairwiseFlat(b, 512) }
func BenchmarkPairwiseTiled512(b *testing.B) { benchmarkPairwiseTiled(b, 512) }

// BenchmarkPairwiseCached256 measures the tile-local ground-cost caches
// on a 256-bag corpus whose histogram signatures all share one support
// set: every tile re-solves the same cost matrix, so the cache collapses
// the tile's ground work to a single priced entry per worker. Manhattan
// keeps the 1-D pairs on the simplex; BENCH_PR6.json records the
// cache/nocache pair.
func BenchmarkPairwiseCached256(b *testing.B) {
	const n = 256
	rng := randx.New(65)
	seq := make(bag.Sequence, n)
	for t := range seq {
		vals := make([]float64, 800) // uniform over [0,1): all 64 bins stay occupied
		for i := range vals {
			vals[i] = rng.Float64()
		}
		seq[t] = bag.FromScalars(t, vals)
	}
	factory := signature.HistogramFactory(0, 1, 64)
	for _, tc := range []struct {
		name string
		hide bool // hide the builder's fixed support: no cost cache
	}{{"cache", false}, {"nocache", true}} {
		b.Run(tc.name, func(b *testing.B) {
			f := func(seed int64) Builder { return benchBuilder(factory(seed), tc.hide) }
			for i := 0; i < b.N; i++ {
				_, err := core.Pairwise(seq,
					core.WithPairBuilderFactory(f, 0),
					core.WithPairGround(emd.Manhattan),
				)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMDSEmbed times the classical MDS embedding of a 20×20 matrix.
func BenchmarkMDSEmbed(b *testing.B) {
	rng := randx.New(23)
	n := 20
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = rng.NormalVec(2, 0, 3)
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				dx := pts[i][0] - pts[j][0]
				dy := pts[i][1] - pts[j][1]
				d[i][j] = dx*dx + dy*dy
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MDSEmbed(d, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChangeFinder and BenchmarkKCD time the Fig. 1 baselines on a
// 150-step scalar series.
func BenchmarkChangeFinder(b *testing.B) {
	rng := randx.New(24)
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf, err := baseline.NewChangeFinder(2, 0.03, 5, 5)
		if err != nil {
			b.Fatal(err)
		}
		cf.Run(xs)
	}
}

func BenchmarkKCD(b *testing.B) {
	rng := randx.New(25)
	xs := make([][]float64, 150)
	for i := range xs {
		xs[i] = []float64{rng.Normal(0, 1)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.RunKCD(xs, baseline.KCDConfig{Window: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine benchmarks ------------------------------------------------------

// benchmarkEngineBatch measures steady-state batch throughput over 64
// concurrent streams: each op pushes one batch with one bag per stream
// (64 detector pushes). The workers=1 variant is the sequential
// per-detector baseline — per-stream output is bit-identical between the
// two (see TestEnginePushBatchBitIdentical), so the worker fan-out is a
// pure throughput knob and the ratio of these two benchmarks is the
// engine's multicore speedup (≈1× on a single-core box).
func benchmarkEngineBatch(b *testing.B, workers int) {
	const streams = 64
	const history = 16
	eng, err := core.NewEngine(core.EngineConfig{
		Template: core.Config{
			Tau: 4, TauPrime: 4,
			Bootstrap: bootstrap.Config{Replicates: 200},
		},
		Factory: signature.HistogramFactory(-6, 6, 24),
		Seed:    1,
		Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(9)
	bags := make([][]bag.Bag, streams)
	ids := make([]string, streams)
	for s := range bags {
		ids[s] = "stream-" + string(rune('A'+s%26)) + string(rune('0'+s/26))
		bags[s] = make([]bag.Bag, history)
		for ts := range bags[s] {
			vals := make([]float64, 80)
			for i := range vals {
				vals[i] = rng.Normal(0, 1)
			}
			bags[s][ts] = bag.FromScalars(ts, vals)
		}
	}
	batch := make([]core.StreamBag, streams)
	push := func(step int) {
		for s := range batch {
			batch[s] = core.StreamBag{StreamID: ids[s], Bag: bags[s][step%history]}
		}
		if _, err := eng.PushBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	for step := 0; step < 8; step++ { // fill every window: warm steady state
		push(step)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(8 + i)
	}
	b.ReportMetric(float64(streams)*float64(b.N)/b.Elapsed().Seconds(), "bags/s")
}

func BenchmarkEnginePushBatch(b *testing.B) {
	benchmarkEngineBatch(b, runtime.GOMAXPROCS(0))
}

func BenchmarkEnginePushBatchSequential(b *testing.B) {
	benchmarkEngineBatch(b, 1)
}
