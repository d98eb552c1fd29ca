package core

import (
	"testing"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/randx"
	"repro/internal/signature"
	"repro/internal/testutil"
)

func warmDetector(t testing.TB) (*Detector, []bag.Bag) {
	t.Helper()
	rng := randx.New(6)
	d, err := New(Config{
		Tau: 5, TauPrime: 5,
		Builder:   signature.NewHistogramBuilder(-5, 5, 40),
		Bootstrap: bootstrap.Config{Replicates: 1000},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bags := make([]bag.Bag, 24)
	for ts := range bags {
		vals := make([]float64, 300)
		for i := range vals {
			vals[i] = rng.Normal(0, 1)
		}
		bags[ts] = bag.FromScalars(ts, vals)
	}
	for ts := 0; ts < len(bags); ts++ {
		if _, err := d.Push(bags[ts]); err != nil {
			t.Fatal(err)
		}
	}
	return d, bags
}

// TestDetectorBootstrapStageZeroAllocs is the allocation-regression guard
// for Detector.Push's score/bootstrap stage: once the window is warm, the
// interval computation (window rebind, T=1000 Dirichlet replicates, score
// evaluations, quantiles) must not allocate at all.
func TestDetectorBootstrapStageZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d, _ := warmDetector(t)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.interval(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm detector score/bootstrap stage: %g allocs/op, want 0", allocs)
	}
}

// TestDetectorPushSteadyStateAllocs bounds the whole Push: the signature
// build inherently allocates (it returns a fresh signature), but the
// window slide, EMD row, and bootstrap stage must not add per-push
// garbage beyond it.
func TestDetectorPushSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d, bags := warmDetector(t)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Push(bags[i%len(bags)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Builder output (centers slice + rows + weights + normalized copy) is
	// ~46 allocations for a 40-bin histogram; anything near the old
	// per-push cost (hundreds: fresh simplex scratch per EMD plus
	// bootstrap buffers) must fail.
	if allocs > 60 {
		t.Errorf("steady-state Push: %g allocs/op, want <= 60 (signature build only)", allocs)
	}
}

// TestDetectorPushKMeansSteadyStateAllocs bounds a warm push in the
// serve-kmeans shape (3-D bags of 120 points, K=16, τ=τ′=4, T=100,
// default cost-cache setting): k-means runs on pooled scratch and no
// cost cache is attached, so the push allocates only the signature
// (center array, center views, weights), its normalized weights and
// the bootstrap's interval history entry.
func TestDetectorPushKMeansSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := randx.New(8)
	d, err := New(Config{
		Tau: 4, TauPrime: 4,
		Builder:   signature.KMeansFactory(16, cluster.Config{})(3),
		Bootstrap: bootstrap.Config{Replicates: 100},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	bags := make([]bag.Bag, 16)
	for ts := range bags {
		pts := make([][]float64, 120)
		for i := range pts {
			pts[i] = rng.NormalVec(3, 0, 1)
		}
		bags[ts] = bag.New(ts, pts)
	}
	for _, b := range bags {
		if _, err := d.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Push(bags[i%len(bags)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("steady-state k-means Push: %g allocs/op", allocs)
	if allocs > 6 {
		t.Errorf("steady-state k-means Push: %g allocs/op, want <= 6", allocs)
	}
}
