// Package experiments contains the driver for every table and figure of
// the paper's evaluation (§5). Each driver generates its workload from a
// seed, runs the detector (and baselines where the figure calls for
// them), computes quantitative detection metrics against ground truth,
// and renders a plain-text report. cmd/repro prints the reports;
// bench_test.go times the same drivers; EXPERIMENTS.md records their
// output.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/signature"
)

// histogramBuilderFor constructs a histogram signature builder spanning
// the observed range of a 1-D bag sequence (slightly padded so late
// observations near the extremes do not pile into the clamp bins).
func histogramBuilderFor(seq bag.Sequence, bins int) (signature.Builder, error) {
	lo, hi := seq.Bounds()
	if lo == nil {
		return nil, fmt.Errorf("experiments: sequence has no points")
	}
	span := hi[0] - lo[0]
	if span <= 0 {
		span = 1
	}
	pad := 0.05 * span
	return signature.NewHistogramBuilder(lo[0]-pad, hi[0]+pad, bins), nil
}

// detectorConfig assembles the standard §5 configuration: scoreKL,
// uniform weights, Bayesian bootstrap with T replicates at 95%.
func detectorConfig(tau, tauPrime int, b signature.Builder, replicates int, seed int64) core.Config {
	return core.Config{
		Tau:       tau,
		TauPrime:  tauPrime,
		Statistic: "kl",
		Builder:   b,
		Bootstrap: bootstrap.Config{Replicates: replicates, Alpha: 0.05},
		Seed:      seed,
	}
}

// kmeansBuilder builds the k-means signature builder used for
// multi-dimensional bags.
func kmeansBuilder(k int, rng *randx.RNG) signature.Builder {
	return signature.NewKMeansBuilder(k, cluster.Config{MaxIters: 25}, rng)
}

// kmeansFactory is the stream-safe counterpart of kmeansBuilder: drivers
// that build signatures in parallel (the tiled pairwise matrix) take a
// factory so every bag gets its own split-seeded builder.
func kmeansFactory(k int) signature.BuilderFactory {
	return signature.KMeansFactory(k, cluster.Config{MaxIters: 25})
}

// seriesOf extracts aligned slices (times, scores, CI bounds) from
// detector output for plotting and evaluation.
func seriesOf(points []core.Point) (times []int, scores, lo, hi []float64) {
	for _, p := range points {
		times = append(times, p.T)
		scores = append(scores, p.Score)
		lo = append(lo, p.Interval.Lo)
		hi = append(hi, p.Interval.Up)
	}
	return times, scores, lo, hi
}

// offsetsToIndex maps absolute alarm/change times to indices relative to
// the first inspected time, for plotting on a score-series axis.
func offsetsToIndex(times []int, marks []int) []int {
	if len(times) == 0 {
		return nil
	}
	first := times[0]
	var out []int
	for _, m := range marks {
		idx := m - first
		if idx >= 0 && idx < len(times) {
			out = append(out, idx)
		}
	}
	return out
}

// section header helper for reports.
func header(title string) string {
	bar := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, bar)
}
