package bootstrap

import (
	"math"
	"sort"
	"testing"

	"repro/internal/randx"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Error("single-element quantile")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 1, Up: 3, Point: 2}
	if !iv.Contains(1) || !iv.Contains(3) || iv.Contains(0.5) {
		t.Error("Contains misbehaves")
	}
	if iv.Width() != 2 {
		t.Errorf("Width = %g", iv.Width())
	}
}

func TestKappaAndAlarm(t *testing.T) {
	prev := Interval{Lo: 0, Up: 1}
	cur := Interval{Lo: 2, Up: 3}
	if Kappa(cur, prev) != 1 {
		t.Errorf("Kappa = %g", Kappa(cur, prev))
	}
	if !Alarm(cur, prev) {
		t.Error("disjoint-above intervals must alarm")
	}
	overlap := Interval{Lo: 0.5, Up: 2}
	if Alarm(overlap, prev) {
		t.Error("overlapping intervals must not alarm")
	}
	// Equal boundary: κ = 0, no alarm (strict inequality in Eq. 18).
	touch := Interval{Lo: 1, Up: 2}
	if Alarm(touch, prev) {
		t.Error("touching intervals must not alarm")
	}
}

func TestConfidenceIntervalValidation(t *testing.T) {
	score := func(a, b []float64) float64 { return 0 }
	if _, err := NewSeededEstimator(1).Interval(score, nil, []float64{1}, Config{}); err == nil {
		t.Error("empty baseRef accepted")
	}
	if _, err := NewSeededEstimator(1).Interval(score, []float64{0.5, 0.4}, []float64{1}, Config{}); err == nil {
		t.Error("non-normalized baseRef accepted")
	}
	if _, err := NewSeededEstimator(1).Interval(score, []float64{1}, []float64{-1, 2}, Config{}); err == nil {
		t.Error("negative baseTest accepted")
	}
}

// TestConfigValidate: Alpha must be a finite level in [0, 1) and
// Replicates non-negative (zero selects each default); Interval refuses
// what Validate refuses instead of indexing the replicates with NaN.
func TestConfigValidate(t *testing.T) {
	score := func(a, b []float64) float64 { return a[0] }
	base := []float64{0.5, 0.5}
	for _, cfg := range []Config{
		{Alpha: math.NaN()}, {Alpha: math.Inf(1)}, {Alpha: math.Inf(-1)},
		{Alpha: -0.1}, {Alpha: 1}, {Alpha: 1.5}, {Replicates: -5},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", cfg)
		}
		if _, err := NewSeededEstimator(1).Interval(score, base, base, cfg); err == nil {
			t.Errorf("Interval with %+v accepted", cfg)
		}
	}
	for _, cfg := range []Config{{}, {Alpha: 0.05, Replicates: 1}, {Alpha: 0.999}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", cfg, err)
		}
	}
}

func TestConfidenceIntervalDeterministicGivenSeed(t *testing.T) {
	score := func(a, b []float64) float64 { return a[0] - b[0] }
	base := []float64{0.5, 0.5}
	iv1, err := NewSeededEstimator(42).Interval(score, base, base, Config{Replicates: 200})
	if err != nil {
		t.Fatal(err)
	}
	iv2, err := NewSeededEstimator(42).Interval(score, base, base, Config{Replicates: 200})
	if err != nil {
		t.Fatal(err)
	}
	if iv1 != iv2 {
		t.Errorf("same seed gave %+v vs %+v", iv1, iv2)
	}
}

func TestConfidenceIntervalOfWeightedMean(t *testing.T) {
	// Statistic: Bayesian-bootstrap weighted mean of fixed values. The
	// posterior mean equals the sample mean and the 95% interval must
	// bracket it with plausible width (Rubin 1981: posterior variance
	// ≈ s²/(n+1)).
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	n := len(values)
	score := func(gRef, _ []float64) float64 {
		s := 0.0
		for i, g := range gRef {
			s += g * values[i]
		}
		return s
	}
	base := make([]float64, n)
	for i := range base {
		base[i] = 1 / float64(n)
	}
	iv, err := NewSeededEstimator(7).Interval(score, base, []float64{1}, Config{Replicates: 4000})
	if err != nil {
		t.Fatal(err)
	}
	mean := 5.5
	if math.Abs(iv.Point-mean) > 1e-9 {
		t.Errorf("Point = %g, want %g", iv.Point, mean)
	}
	if !(iv.Lo < mean && mean < iv.Up) {
		t.Errorf("interval [%g, %g] does not bracket the mean %g", iv.Lo, iv.Up, mean)
	}
	// Theoretical posterior sd ≈ sqrt(Σ(v−m)²/n/(n+1)) ≈ 0.866; a 95%
	// interval should be roughly ±1.96 sd.
	sd := 0.0
	for _, v := range values {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(n) / float64(n+1))
	wantWidth := 2 * 1.96 * sd
	if math.Abs(iv.Width()-wantWidth) > 0.35*wantWidth {
		t.Errorf("width = %g, want ≈ %g", iv.Width(), wantWidth)
	}
}

func TestWeightedBaseShiftsInterval(t *testing.T) {
	// Appendix B: base weights θ shift the Dirichlet parameters. Placing
	// almost all base mass on the largest value must shift the interval
	// upward relative to uniform.
	values := []float64{0, 0, 0, 10}
	score := func(gRef, _ []float64) float64 {
		s := 0.0
		for i, g := range gRef {
			s += g * values[i]
		}
		return s
	}
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	skewed := []float64{0.05, 0.05, 0.05, 0.85}
	dummy := []float64{1}
	ivU, err := NewSeededEstimator(9).Interval(score, uniform, dummy, Config{Replicates: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ivS, err := NewSeededEstimator(9).Interval(score, skewed, dummy, Config{Replicates: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if ivS.Point <= ivU.Point {
		t.Errorf("skewed point %g should exceed uniform point %g", ivS.Point, ivU.Point)
	}
	if ivS.Lo <= ivU.Lo {
		t.Errorf("skewed Lo %g should exceed uniform Lo %g", ivS.Lo, ivU.Lo)
	}
}

func TestZeroBaseWeightGetsAlmostNoMass(t *testing.T) {
	// A zero base weight clamps to a tiny Dirichlet parameter: the item
	// should receive essentially no resampled mass.
	score := func(gRef, _ []float64) float64 { return gRef[0] }
	base := []float64{0, 0.5, 0.5}
	iv, err := NewSeededEstimator(11).Interval(score, base, []float64{1}, Config{Replicates: 500})
	if err != nil {
		t.Fatal(err)
	}
	if iv.Up > 0.05 {
		t.Errorf("zero-weight item received mass up to %g", iv.Up)
	}
}

func TestCoverageOfBootstrapInterval(t *testing.T) {
	// Frequentist sanity: over repeated datasets from N(0,1), the 95%
	// Bayesian-bootstrap interval for the mean should cover 0 most of
	// the time. (Coverage is approximate for n=25; accept 85-100%.)
	master := randx.New(13)
	const datasets = 60
	const n = 25
	covered := 0
	base := make([]float64, n)
	for i := range base {
		base[i] = 1.0 / n
	}
	for d := 0; d < datasets; d++ {
		values := make([]float64, n)
		for i := range values {
			values[i] = master.Normal(0, 1)
		}
		score := func(gRef, _ []float64) float64 {
			s := 0.0
			for i, g := range gRef {
				s += g * values[i]
			}
			return s
		}
		iv, err := NewSeededEstimator(randx.SplitSeed(13, int64(d))).Interval(score, base, []float64{1}, Config{Replicates: 400})
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(0) {
			covered++
		}
	}
	rate := float64(covered) / datasets
	if rate < 0.85 {
		t.Errorf("coverage = %g, want >= 0.85", rate)
	}
}

func TestScoresSortedInternally(t *testing.T) {
	// The interval must be monotone: Lo <= Up always, for an asymmetric
	// noisy statistic.
	rng := randx.New(17)
	score := func(gRef, gTest []float64) float64 {
		return gRef[0]*3 - gTest[0] + rng.Float64()*0.01
	}
	base2 := []float64{0.7, 0.3}
	iv, err := NewSeededEstimator(19).Interval(score, base2, base2, Config{Replicates: 333, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > iv.Up {
		t.Errorf("Lo %g > Up %g", iv.Lo, iv.Up)
	}
}

func TestQuantileMatchesSortedExtremes(t *testing.T) {
	rng := randx.New(23)
	s := make([]float64, 100)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	sort.Float64s(s)
	if Quantile(s, 0) != s[0] || Quantile(s, 1) != s[99] {
		t.Error("extreme quantiles must be min/max")
	}
	// Monotonicity in p.
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.05 {
		q := Quantile(s, p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%g", p)
		}
		prev = q
	}
}
