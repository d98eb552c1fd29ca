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

// variableSupport hides a builder's signature.FixedSupport method, so a
// detector or pairwise worker built over it runs without a cost cache:
// the uncached side of the bit-identity tests.
type variableSupport struct{ signature.Builder }

// TestDetectorCostCacheBitIdentity runs the full detector twice on the
// same sequence — a histogram builder (cost cache attached) vs the same
// builder with its fixed support hidden (no cache) — and requires every
// inspection point to match bit-for-bit. The Manhattan ground forces the
// 1-D histogram signatures through the simplex (Euclidean would take the
// closed form and never touch the cache), so this exercises the cached
// row fills on the real detector loop. The contract is what keeps the
// cache out of the snapshot fingerprint.
func TestDetectorCostCacheBitIdentity(t *testing.T) {
	mkCfg := func(b signature.Builder) Config {
		return Config{
			Tau:      5,
			TauPrime: 5,
			Builder:  b,
			Ground:   emd.Manhattan,
			Bootstrap: bootstrap.Config{
				Replicates: 150,
				Alpha:      0.05,
			},
			Seed: 1,
		}
	}
	rng := randx.New(3)
	seq := gaussianSeq(rng, 28, 14, 80, 0, 5)

	hist := signature.NewHistogramBuilder(-10, 10, 40)
	cached, err := Run(mkCfg(hist), seq)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(mkCfg(variableSupport{hist}), seq)
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
// of a histogram corpus must not perturb a single bit of the pairwise
// matrix, across worker counts and tile sizes.
func TestPairwiseCostCacheBitIdentity(t *testing.T) {
	const n = 19
	rng := randx.New(47)
	seq := gaussianSeq(rng, n, n/2, 60, 0, 4)
	factory := signature.HistogramFactory(-8, 10, 32)
	uncached := func(seed int64) signature.Builder { return variableSupport{factory(seed)} }

	ref, err := Pairwise(seq,
		WithPairBuilderFactory(uncached, 0),
		WithPairGround(emd.Manhattan), // force the simplex on 1-D histograms
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

// TestDetectorCostCacheDefault: a detector's solves consult a cost cache
// exactly when its builder reports a fixed support. Under the Manhattan
// ground every 1-D solve runs the simplex, so the cache counters of a
// fixed-support builder move on every push and those of every other
// builder stay at zero.
func TestDetectorCostCacheDefault(t *testing.T) {
	seq := gaussianSeq(randx.New(8), 8, 4, 40, 0, 2)
	hist := signature.NewHistogramBuilder(-4, 4, 16)
	for _, tc := range []struct {
		name    string
		builder signature.Builder
		cached  bool
	}{
		{"histogram", hist, true},
		{"grid", signature.NewGridBuilder([]float64{-4}, []float64{4}, 16), true},
		{"kmeans", signature.KMeansFactory(4, cluster.Config{})(1), false},
		{"kmedoids", signature.KMedoidsFactory(4, cluster.Config{})(1), false},
		{"online", signature.OnlineFactory(4, 0)(1), false},
		{"histogram/hidden", variableSupport{hist}, false},
	} {
		d, err := New(Config{
			Tau: 2, TauPrime: 2,
			Builder:   tc.builder,
			Ground:    emd.Manhattan,
			Bootstrap: bootstrap.Config{Replicates: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range seq {
			if _, err := d.Push(b); err != nil {
				t.Fatalf("%s: push %d: %v", tc.name, i, err)
			}
			if i == 0 {
				continue // one bag, no EMD yet
			}
			st := d.solver.Stats()
			if moved := st.CacheHits+st.CacheMisses > 0; moved != tc.cached {
				t.Errorf("%s: push %d: cache hits %d, misses %d; want cache counters moving = %v",
					tc.name, i, st.CacheHits, st.CacheMisses, tc.cached)
			}
		}
	}
}
