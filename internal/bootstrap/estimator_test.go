package bootstrap

import (
	"math"
	"sort"
	"testing"

	"repro/internal/randx"
	"repro/internal/testutil"
)

// pureScore is a cheap deterministic statistic over both weight vectors.
func pureScore(gRef, gTest []float64) float64 {
	s := 0.0
	for i, g := range gRef {
		s += g * float64(i+1)
	}
	for i, g := range gTest {
		s -= g * g * float64(i+1)
	}
	return s
}

// TestIntervalShardLayout pins the replicate-to-stream layout: replicate
// r of every call draws its Dirichlet weights (ref, then test) from the
// persistent stream NewFast(SplitSeed(seed, r/64)), and the interval is
// the sort-based quantile pair of the replicate scores. Two consecutive
// calls must match the reference bit for bit, so the second call also
// checks that the shard streams advance instead of restarting.
func TestIntervalShardLayout(t *testing.T) {
	const seed = 42
	baseRef := []float64{0.25, 0.25, 0.25, 0.25}
	baseTest := []float64{0.5, 0.25, 0.25}
	alphaRef := []float64{1, 1, 1, 1}       // 4·θ_ref: the Exp(1) path
	alphaTest := []float64{1.5, 0.75, 0.75} // 3·θ_test: the Gamma path
	for _, T := range []int{1, 63, 64, 65, 1000} {
		cfg := Config{Replicates: T, Alpha: 0.1}
		e := NewSeededEstimator(seed)
		var streams []*randx.RNG
		for k := 0; k*64 < T; k++ {
			streams = append(streams, randx.NewFast(randx.SplitSeed(seed, int64(k))))
		}
		for call := 0; call < 2; call++ {
			scores := make([]float64, T)
			for r := range scores {
				rng := streams[r/64]
				gRef := rng.Dirichlet(alphaRef)
				gTest := rng.Dirichlet(alphaTest)
				scores[r] = pureScore(gRef, gTest)
			}
			sort.Float64s(scores)
			want := Interval{
				Lo:    Quantile(scores, 0.05),
				Up:    Quantile(scores, 0.95),
				Point: pureScore(baseRef, baseTest),
			}
			got, err := e.Interval(pureScore, baseRef, baseTest, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("T=%d call %d: %+v, reference %+v", T, call, got, want)
			}
		}
	}
}

// TestSeededEstimatorDeterministicSequence: a persistent-stream estimator
// reproduces the same interval SEQUENCE for the same seed, and a
// different seed gives a different sequence.
func TestSeededEstimatorDeterministicSequence(t *testing.T) {
	base := []float64{0.5, 0.3, 0.2}
	cfg := Config{Replicates: 300}
	a := NewSeededEstimator(7)
	b := NewSeededEstimator(7)
	other := NewSeededEstimator(8)
	sawDifferent := false
	for step := 0; step < 5; step++ {
		ivA, err := a.Interval(pureScore, base, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ivB, err := b.Interval(pureScore, base, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ivA != ivB {
			t.Fatalf("step %d: same seed gave %+v != %+v", step, ivA, ivB)
		}
		ivO, err := other.Interval(pureScore, base, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ivO.Lo != ivA.Lo || ivO.Up != ivA.Up {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Error("different seeds produced identical interval sequences")
	}
}

// TestQuantileSelectMatchesSort: the quickselect quantile must agree
// exactly with sort-then-interpolate on random inputs.
func TestQuantileSelectMatchesSort(t *testing.T) {
	rng := randx.New(31)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		if trial%4 == 0 {
			// Heavy duplicates stress the Hoare partition.
			for i := range xs {
				xs[i] = math.Floor(xs[i] * 2)
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 0.01, 0.025, 0.31, 0.5, 0.975, 0.99, 1} {
			want := Quantile(sorted, p)
			got := quantileSelect(append([]float64(nil), xs...), p)
			if got != want && math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d n=%d p=%g: quantileSelect %.17g, Quantile %.17g", trial, n, p, got, want)
			}
		}
	}
}

// TestNaNScoresDoNotPanic: a degenerate statistic returning NaN must
// degrade gracefully (as the sort-based quantiles always did), never
// panic inside the quickselect.
func TestNaNScoresDoNotPanic(t *testing.T) {
	base := []float64{0.5, 0.5}
	nanScore := func(gRef, _ []float64) float64 {
		if gRef[0] > 0.5 {
			return math.NaN()
		}
		return gRef[0]
	}
	iv, err := NewSeededEstimator(1).Interval(nanScore, base, base, Config{Replicates: 200})
	if err != nil {
		t.Fatal(err)
	}
	// With NaNs in the replicate set the interval is NaN-degraded; the
	// contract here is only "no panic, Lo <= Up or NaN".
	if !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Up) && iv.Lo > iv.Up {
		t.Errorf("Lo %g > Up %g", iv.Lo, iv.Up)
	}
	// All-NaN scores must also survive.
	allNaN := func(_, _ []float64) float64 { return math.NaN() }
	if _, err := NewSeededEstimator(2).Interval(allNaN, base, base, Config{Replicates: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmEstimatorZeroAllocs is the allocation-regression guard for the
// bootstrap stage: a warm Estimator computes a full interval without
// heap allocations.
func TestWarmEstimatorZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	cfg := Config{Replicates: 500}
	e := NewSeededEstimator(3)
	if _, err := e.Interval(pureScore, base, base, cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Interval(pureScore, base, base, cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Estimator.Interval: %g allocs/op, want 0", allocs)
	}
}

// TestUniformBaseTakesExpPath: with uniform base weights the scaled
// Dirichlet parameters must snap to exactly 1 (Dir(1,…,1) is the plain
// Bayesian bootstrap), enabling the exponential fast path.
func TestUniformBaseTakesExpPath(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7, 10, 33} {
		theta := make([]float64, n)
		for i := range theta {
			theta[i] = 1 / float64(n)
		}
		alpha := scaledInto(nil, theta)
		for i, a := range alpha {
			if a != 1 {
				t.Fatalf("n=%d: alpha[%d] = %.17g, want exactly 1", n, i, a)
			}
		}
	}
	// Non-uniform weights must NOT snap.
	alpha := scaledInto(nil, []float64{0.7, 0.3})
	if alpha[0] == 1 || alpha[1] == 1 {
		t.Fatalf("non-uniform weights snapped to 1: %v", alpha)
	}
}

// TestResetStreamsRewindsSeededEstimator: after ResetStreams(seed) a used
// persistent estimator reproduces the exact interval sequence of a fresh
// NewSeededEstimator(seed) — the property the detector pool relies on to
// recycle warm estimators.
func TestResetStreamsRewindsSeededEstimator(t *testing.T) {
	base := []float64{0.5, 0.3, 0.2}
	cfg := Config{Replicates: 300}
	sequence := func(e *Estimator, n int) []Interval {
		out := make([]Interval, n)
		for i := range out {
			iv, err := e.Interval(pureScore, base, base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = iv
		}
		return out
	}

	e := NewSeededEstimator(7)
	first := sequence(e, 4)
	e.ResetStreams(7)
	if second := sequence(e, 4); !slicesEqualIntervals(first, second) {
		t.Fatalf("reset to same seed diverged: %+v vs %+v", first, second)
	}

	// Rebinding to a different seed matches a fresh estimator of that seed.
	e.ResetStreams(11)
	want := sequence(NewSeededEstimator(11), 4)
	if got := sequence(e, 4); !slicesEqualIntervals(got, want) {
		t.Fatalf("reset to new seed diverged from fresh estimator: %+v vs %+v", got, want)
	}
}

func slicesEqualIntervals(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
