// Corpus-scale retrospective analysis (the Fig. 6 pipeline at size):
// given an archive of bags — here, daily latency samples from a service
// whose behaviour shifts through three regimes — compute the full
// pairwise EMD matrix with the tiled engine, embed it with MDS to see
// the regimes as clusters, and segment the corpus with the
// distance-profile detector (repro.DistProfile), which recovers every
// regime boundary — with a permutation p-value each — from the matrix
// alone. It exits non-zero unless exactly the two planted boundaries
// come back.
//
// Run: go run ./examples/corpus
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// 120 daily bags of 60 latency samples; regime boundaries at days 40
	// and 80 (a deploy shifts the median, an incident fattens the tail).
	const days, changeA, changeB = 120, 40, 80
	var seq repro.Sequence
	for day := 0; day < days; day++ {
		samples := make([]float64, 60)
		for i := range samples {
			switch {
			case day < changeA:
				samples[i] = 20 + 3*rng.NormFloat64()
			case day < changeB:
				samples[i] = 26 + 3*rng.NormFloat64()
			default:
				samples[i] = 23 + 3*rng.NormFloat64() + 7*rng.ExpFloat64()
			}
		}
		seq = append(seq, repro.BagFromScalars(day, samples))
	}

	factory := repro.HistogramFactory(0, 80, 48)

	// Full matrix on the tiled engine: one flat allocation, workers
	// stream over tiles, result independent of tile size and workers.
	m, err := repro.PairwiseEMDTiled(seq,
		repro.WithPairBuilderFactory(factory, 7),
		repro.WithTileSize(32),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pairwise EMD over %d days (%d distances)\n\n", days, days*(days-1)/2)

	// MDS embedding: the three regimes separate in the plane.
	coords, _, err := repro.MDSEmbed(m.Rows(), 2)
	if err != nil {
		log.Fatal(err)
	}
	meanX := func(lo, hi int) (x float64) {
		for d := lo; d < hi; d++ {
			x += coords[d][0]
		}
		return x / float64(hi-lo)
	}
	fmt.Printf("MDS axis-1 centroids: regime1 %+6.2f   regime2 %+6.2f   regime3 %+6.2f\n",
		meanX(0, changeA), meanX(changeA, changeB), meanX(changeB, days))

	// Retrospective segmentation straight from the matrix: the
	// distance-profile detector recovers every regime boundary from the
	// pairwise distances alone — no ground truth, no window lengths —
	// and attaches a permutation p-value to each.
	points, err := repro.DistProfile(m, repro.DistProfileConfig{Replicates: 99, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, p := range points {
		fmt.Printf("segment boundary at day %d (scan stat %.4f, p=%.3f)\n", p.T, p.Stat, p.PValue)
	}
	got := repro.ChangeTimes(points)
	fmt.Printf("\n%d boundaries recovered at days %v (true changes at days %d and %d)\n",
		len(points), got, changeA, changeB)
	if len(got) != 2 || got[0] != changeA || got[1] != changeB {
		log.Fatalf("corpus: boundaries %v, want [%d %d]", got, changeA, changeB)
	}
}
