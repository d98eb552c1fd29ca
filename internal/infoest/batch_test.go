package infoest

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/testutil"
)

// Special-value switches for batchCase, one bit each.
const (
	specialZero      = 1 << iota // one weight is exactly 0
	specialOne                   // one weight is exactly 1
	specialSubnormal             // one weight is the smallest subnormal
	specialHuge                  // one matrix row holds ±1e300
	specialAbove                 // one weight is slightly above 1
)

// batchCase builds a (τ+τ′)² log-distance window and four lanes of
// Dirichlet-like weights from rng, then plants the special values the
// bits of special select, each in a random lane.
func batchCase(rng *randx.RNG, nRef, nTest int, special uint8) (Window, *[4][]float64, *[4][]float64) {
	n := nRef + nTest
	logD := make([][]float64, n)
	for i := range logD {
		logD[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Normal(0, 2)
			logD[i][j], logD[j][i] = v, v
		}
	}
	if special&specialHuge != 0 {
		i := rng.Intn(n)
		for j := range logD[i] {
			v := 1e300
			if rng.Intn(2) == 0 {
				v = -v
			}
			logD[i][j], logD[j][i] = v, v
		}
	}
	var gRef, gTest [4][]float64
	for l := 0; l < 4; l++ {
		gRef[l] = rng.DirichletUniform(nRef)
		gTest[l] = rng.DirichletUniform(nTest)
	}
	plant := func(v float64) {
		l := rng.Intn(4)
		if rng.Intn(2) == 0 {
			gRef[l][rng.Intn(nRef)] = v
		} else {
			gTest[l][rng.Intn(nTest)] = v
		}
	}
	if special&specialZero != 0 {
		plant(0)
	}
	if special&specialOne != 0 {
		plant(1)
	}
	if special&specialSubnormal != 0 {
		plant(math.SmallestNonzeroFloat64)
	}
	if special&specialAbove != 0 {
		plant(math.Nextafter(1, 2))
	}
	return Window{LogD: logD, NRef: nRef, NTest: nTest}, &gRef, &gTest
}

// checkScoreKL4 fails t unless ScoreKL4 either matches four ScoreKL calls
// bit for bit or declines a batch that holds a weight outside (0, 1).
func checkScoreKL4(t *testing.T, w Window, gRef, gTest *[4][]float64) {
	t.Helper()
	out := [4]float64{-7, -7, -7, -7}
	if !ScoreKL4(w, gRef, gTest, &out) {
		for l := 0; l < 4; l++ {
			if !interior(gRef[l]) || !interior(gTest[l]) {
				return
			}
		}
		t.Fatalf("τ=%d τ′=%d: ScoreKL4 declined a batch whose weights all lie in (0, 1)", w.NRef, w.NTest)
	}
	for l := 0; l < 4; l++ {
		want := ScoreKL(w, gRef[l], gTest[l])
		if math.Float64bits(out[l]) != math.Float64bits(want) {
			t.Fatalf("τ=%d τ′=%d lane %d: ScoreKL4 %.17g (%#x), ScoreKL %.17g (%#x)",
				w.NRef, w.NTest, l, out[l], math.Float64bits(out[l]), want, math.Float64bits(want))
		}
	}
}

// TestScoreKL4MatchesScalar: the batch kernel equals four ScoreKL calls
// bit for bit, on plain windows and on windows with zero, unit and
// subnormal weights and ±1e300 rows.
func TestScoreKL4MatchesScalar(t *testing.T) {
	rng := randx.New(17)
	scored := 0
	for trial := 0; trial < 4000; trial++ {
		nRef, nTest := 1+rng.Intn(10), 1+rng.Intn(10)
		special := uint8(0)
		if trial%2 == 1 {
			special = uint8(rng.Intn(32))
		}
		w, gRef, gTest := batchCase(rng, nRef, nTest, special)
		var out [4]float64
		if ScoreKL4(w, gRef, gTest, &out) {
			scored++
		}
		checkScoreKL4(t, w, gRef, gTest)
	}
	// Every plain window with τ, τ′ >= 2 takes the batch path; make sure
	// the bit comparison saw a good share of batches.
	if scored < 1500 {
		t.Fatalf("only %d of 4000 batches took the kernel path", scored)
	}
}

// TestScoreKL4DeclinesSkippedTerms: the kernel declines exactly where
// ScoreKL skips terms — a zero weight, a weight >= 1 (always the case
// for τ=1) — and accepts subnormal weights.
func TestScoreKL4DeclinesSkippedTerms(t *testing.T) {
	rng := randx.New(5)
	var out [4]float64
	for _, tc := range []struct {
		name          string
		nRef, special int
		accept        bool
	}{
		{"plain", 3, 0, true},
		{"subnormal", 3, specialSubnormal, true},
		{"zero", 3, specialZero, false},
		{"one", 3, specialOne, false},
		{"above one", 3, specialAbove, false},
		{"tau 1", 1, 0, false},
	} {
		w, gRef, gTest := batchCase(rng, tc.nRef, 3, uint8(tc.special))
		if got := ScoreKL4(w, gRef, gTest, &out); got != tc.accept {
			t.Errorf("%s: ScoreKL4 returned %v, want %v", tc.name, got, tc.accept)
		}
	}
}

// TestScoreKL4ZeroAllocs: the batch kernel allocates nothing.
func TestScoreKL4ZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, gRef, gTest := batchCase(randx.New(2), 5, 5, 0)
	var out [4]float64
	if allocs := testing.AllocsPerRun(100, func() { ScoreKL4(w, gRef, gTest, &out) }); allocs != 0 {
		t.Errorf("ScoreKL4: %g allocs/op, want 0", allocs)
	}
}

// FuzzScoreKL4 is the differential fuzzer of the batch kernel against
// ScoreKL: whatever the window shape and planted special values, a
// batch the kernel scores must match the scalar score bit for bit.
func FuzzScoreKL4(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(0))
	f.Add(int64(2), uint8(5), uint8(5), uint8(specialSubnormal))
	f.Add(int64(3), uint8(1), uint8(2), uint8(0))
	f.Add(int64(4), uint8(10), uint8(3), uint8(specialHuge))
	f.Add(int64(5), uint8(2), uint8(7), uint8(specialZero|specialOne))
	f.Fuzz(func(t *testing.T, seed int64, nRef, nTest, special uint8) {
		w, gRef, gTest := batchCase(randx.New(seed), 1+int(nRef%16), 1+int(nTest%16), special)
		checkScoreKL4(t, w, gRef, gTest)
	})
}

// BenchmarkScoreKL4 scores four replicates of a τ=τ′=4 window (the
// serve-hist shape) with the batch kernel, and the same four with
// ScoreKL.
func BenchmarkScoreKL4(b *testing.B) {
	w, gRef, gTest := batchCase(randx.New(1), 4, 4, 0)
	var out [4]float64
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScoreKL4(w, gRef, gTest, &out)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for l := range out {
				out[l] = ScoreKL(w, gRef[l], gTest[l])
			}
		}
	})
}
