package core

import (
	"math"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/randx"
	"repro/internal/signature"
)

// TestDetectorCostCacheBitIdentity runs the full detector twice on the
// same sequence — EMD cost caching on vs off — and requires every
// inspection point to match bit-for-bit. The Manhattan ground forces the
// 1-D histogram signatures through the simplex (Euclidean would take the
// closed form and never touch the cache), so this exercises the cached
// row fills on the real detector loop. The contract is what keeps
// EMDCostCacheSlots out of the snapshot fingerprint.
func TestDetectorCostCacheBitIdentity(t *testing.T) {
	mkCfg := func(cacheSlots int) Config {
		return Config{
			Tau:      5,
			TauPrime: 5,
			Builder:  signature.NewHistogramBuilder(-10, 10, 40),
			Ground:   emd.Manhattan,
			Bootstrap: bootstrap.Config{
				Replicates: 150,
				Alpha:      0.05,
			},
			Seed:              1,
			EMDCostCacheSlots: cacheSlots,
		}
	}
	rng := randx.New(3)
	seq := gaussianSeq(rng, 28, 14, 80, 0, 5)

	cached, err := Run(mkCfg(0), seq) // 0 = default cache on
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(mkCfg(-1), seq) // negative = cache disabled
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != len(plain) {
		t.Fatalf("point counts differ: cached %d vs uncached %d", len(cached), len(plain))
	}
	for i := range plain {
		c, p := cached[i], plain[i]
		same := c.T == p.T && c.Score == p.Score && c.Alarm == p.Alarm &&
			c.Interval == p.Interval &&
			math.Float64bits(c.Kappa) == math.Float64bits(p.Kappa) // Kappa is NaN during warm-up
		if !same {
			t.Fatalf("point %d differs with cache on:\n  cached:   %+v\n  uncached: %+v", i, c, p)
		}
	}
}

// TestPairwiseCostCacheBitIdentity: the tile-local ground-cost caches
// must not perturb a single bit of the pairwise matrix, across worker
// counts and tile sizes.
func TestPairwiseCostCacheBitIdentity(t *testing.T) {
	const n = 19
	rng := randx.New(47)
	seq := gaussianSeq(rng, n, n/2, 60, 0, 4)
	factory := signature.HistogramFactory(-8, 10, 32)

	ref, err := Pairwise(seq,
		WithPairBuilderFactory(factory, 0),
		WithPairGround(emd.Manhattan), // force the simplex on 1-D histograms
		WithPairEMDCostCache(-1),      // cache off
		WithPairWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, tile := range []int{1, 6, n} {
			m, err := Pairwise(seq,
				WithPairBuilderFactory(factory, 0),
				WithPairGround(emd.Manhattan),
				WithPairEMDCostCache(0), // default cache on
				WithPairWorkers(workers),
				WithTileSize(tile),
			)
			if err != nil {
				t.Fatalf("cached tile=%d workers=%d: %v", tile, workers, err)
			}
			assertMatrixEqualsRef(t, "cached vs uncached", m, ref.Rows())
		}
	}
}

// TestDetectorCostCacheDefault: under the default EMDCostCacheSlots = 0
// the detector attaches a cache only for a fixed-support builder; a
// positive value attaches that many slots and a negative one none,
// whatever the builder.
func TestDetectorCostCacheDefault(t *testing.T) {
	hist := signature.NewHistogramBuilder(-4, 4, 16)
	kmeans := signature.KMeansFactory(4, cluster.Config{})(1)
	for _, tc := range []struct {
		name    string
		builder signature.Builder
		slots   int
		want    int // attached slots, 0 for none
	}{
		{"hist/default", hist, 0, emd.DefaultCostCacheSlots},
		{"kmeans/default", kmeans, 0, 0},
		{"hist/off", hist, -1, 0},
		{"kmeans/on", kmeans, 2, 2},
		{"kmeans/off", kmeans, -1, 0},
	} {
		d, err := New(Config{
			Tau: 2, TauPrime: 2,
			Builder:           tc.builder,
			Bootstrap:         bootstrap.Config{Replicates: 10},
			EMDCostCacheSlots: tc.slots,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if cc := d.solver.CostCache(); cc != nil {
			got = cc.Slots()
		}
		if got != tc.want {
			t.Errorf("%s: %d cache slots attached, want %d", tc.name, got, tc.want)
		}
	}
}
