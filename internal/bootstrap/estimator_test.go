package bootstrap

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/infoest"
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

// pureBatch is pureScore's batch kernel.
func pureBatch(gRef, gTest *[Lanes][]float64, out *[Lanes]float64) bool {
	for l := range out {
		out[l] = pureScore(gRef[l], gTest[l])
	}
	return true
}

// TestIntervalShardLayout pins the replicate-to-stream layout: replicate
// r of every call draws its Dirichlet weights (ref, then test) from the
// persistent stream NewFast(SplitSeed(seed, r/64)), and the interval is
// the sort-based quantile pair of the replicate scores. Two consecutive
// calls must match the reference bit for bit, so the second call also
// checks that the shard streams advance instead of restarting. The
// scalar path and the batch path (groups of Lanes, scalar tails) must
// both follow the layout.
func TestIntervalShardLayout(t *testing.T) {
	const seed = 42
	baseRef := []float64{0.25, 0.25, 0.25, 0.25}
	baseTest := []float64{0.5, 0.25, 0.25}
	alphaRef := []float64{1, 1, 1, 1}       // 4·θ_ref: the Exp(1) path
	alphaTest := []float64{1.5, 0.75, 0.75} // 3·θ_test: the Gamma path
	for _, T := range []int{1, 63, 64, 65, 1000} {
		cfg := Config{Replicates: T, Alpha: 0.1}
		e, eb := NewSeededEstimator(seed), NewSeededEstimator(seed)
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
			got, err := e.Interval(pureScore, nil, baseRef, baseTest, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("T=%d call %d: %+v, reference %+v", T, call, got, want)
			}
			got, err = eb.Interval(pureScore, pureBatch, baseRef, baseTest, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("T=%d call %d batch: %+v, reference %+v", T, call, got, want)
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
		ivA, err := a.Interval(pureScore, nil, base, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ivB, err := b.Interval(pureScore, nil, base, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ivA != ivB {
			t.Fatalf("step %d: same seed gave %+v != %+v", step, ivA, ivB)
		}
		ivO, err := other.Interval(pureScore, nil, base, base, cfg)
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

// TestQuantileSelectMatchesSort: the one-pass quickselect quantile pair
// must agree exactly with two sort-then-interpolate quantiles on random
// inputs, for every pair of probabilities pLo <= pHi (equal ones too)
// and every length from 1 up, NaN inputs included.
func TestQuantileSelectMatchesSort(t *testing.T) {
	rng := randx.New(31)
	ps := []float64{0, 0.01, 0.025, 0.05, 0.31, 0.5, 0.95, 0.975, 0.99, 1}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(400)
		if trial < 40 {
			n = 1 + trial%4 // T in {1, 2, 3, 4}
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		switch trial % 8 {
		case 0, 4:
			// Heavy duplicates stress the Hoare partition.
			for i := range xs {
				xs[i] = math.Floor(xs[i] * 2)
			}
		case 7:
			xs[rng.Intn(n)] = math.NaN() // the sort-based fallback
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for a, pLo := range ps {
			for _, pHi := range ps[a:] {
				wantLo, wantUp := Quantile(sorted, pLo), Quantile(sorted, pHi)
				lo, up := quantilePair(append([]float64(nil), xs...), pLo, pHi)
				if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(up) != math.Float64bits(wantUp) {
					t.Fatalf("trial %d n=%d p=(%g, %g): quantilePair (%.17g, %.17g), Quantile (%.17g, %.17g)",
						trial, n, pLo, pHi, lo, up, wantLo, wantUp)
				}
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
	iv, err := NewSeededEstimator(1).Interval(nanScore, nil, base, base, Config{Replicates: 200})
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
	if _, err := NewSeededEstimator(2).Interval(allNaN, nil, base, base, Config{Replicates: 50}); err != nil {
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
	for _, tc := range []struct {
		name  string
		batch BatchScoreFunc
	}{{"scalar", nil}, {"batch", pureBatch}} {
		e := NewSeededEstimator(3)
		if _, err := e.Interval(pureScore, tc.batch, base, base, cfg); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Interval(pureScore, tc.batch, base, base, cfg); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("warm Estimator.Interval (%s): %g allocs/op, want 0", tc.name, allocs)
		}
	}
}

// randomWindow returns a symmetric (nRef+nTest)² log-distance window
// with Gaussian entries and a zero diagonal.
func randomWindow(rng *randx.RNG, nRef, nTest int) infoest.Window {
	n := nRef + nTest
	logD := make([][]float64, n)
	for i := range logD {
		logD[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Normal(0, 1)
			logD[i][j], logD[j][i] = v, v
		}
	}
	return infoest.Window{LogD: logD, NRef: nRef, NTest: nTest}
}

// TestIntervalBatchMatchesScalar: an estimator that scores through a
// batch kernel returns, call after call, the intervals of a scalar-only
// estimator of the same seed bit for bit, and leaves its shard streams
// at the same positions. It runs the KL kernel on random windows with
// τ, τ′ ∈ [1, 10] (τ=1 makes every batch decline) under uniform and
// discounted bases, and a kernel that declines every other batch after
// scribbling on out, across replicate counts that end a shard on, just
// past and short of a whole group.
func TestIntervalBatchMatchesScalar(t *testing.T) {
	rng := randx.New(23)
	bits := math.Float64bits
	for trial := 0; trial < 40; trial++ {
		nRef, nTest := 1+rng.Intn(10), 1+rng.Intn(10)
		win := randomWindow(rng, nRef, nTest)
		baseRef, baseTest := infoest.UniformWeights(nRef), infoest.UniformWeights(nTest)
		if trial%2 == 1 {
			baseRef, baseTest = infoest.DiscountedRefWeights(nRef), infoest.DiscountedTestWeights(nTest)
		}
		score := func(gRef, gTest []float64) float64 { return infoest.ScoreKL(win, gRef, gTest) }
		batch := func(gRef, gTest *[Lanes][]float64, out *[Lanes]float64) bool {
			return infoest.ScoreKL4(win, gRef, gTest, out)
		}
		if trial%4 == 3 {
			calls := 0
			batch = func(gRef, gTest *[Lanes][]float64, out *[Lanes]float64) bool {
				if calls++; calls%2 == 0 {
					out[0] = math.NaN()
					return false
				}
				return infoest.ScoreKL4(win, gRef, gTest, out)
			}
		}
		for _, T := range []int{1, 3, 4, 5, 63, 64, 65, 67, 200, 1000} {
			cfg := Config{Replicates: T}
			seed := randx.SplitSeed(int64(trial), int64(T))
			scalar, batched := NewSeededEstimator(seed), NewSeededEstimator(seed)
			for call := 0; call < 3; call++ {
				want, err := scalar.Interval(score, nil, baseRef, baseTest, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := batched.Interval(score, batch, baseRef, baseTest, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if bits(got.Lo) != bits(want.Lo) || bits(got.Up) != bits(want.Up) || bits(got.Point) != bits(want.Point) {
					t.Fatalf("trial %d τ=%d τ′=%d T=%d call %d: batch %+v, scalar %+v", trial, nRef, nTest, T, call, got, want)
				}
			}
			if !reflect.DeepEqual(batched.StreamState(), scalar.StreamState()) {
				t.Fatalf("trial %d T=%d: stream states differ after 3 calls", trial, T)
			}
		}
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
			iv, err := e.Interval(pureScore, nil, base, base, cfg)
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
