// Survey monitoring (the paper's first motivating scenario): a
// questionnaire is run periodically on a changing group of respondents,
// and we monitor the OVERALL characteristics of the group — not any
// individual — for changes.
//
// Each wave, a different number of people answer two questions scored on
// continuous scales (say, satisfaction and spend). Midway through, the
// population's structure shifts: a single homogeneous group splits into
// two segments with the SAME overall mean. Tracking the per-wave mean
// vector would miss this entirely; the bag-of-data detector sees the
// distributional change.
//
// Run: go run ./examples/survey
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	det, err := repro.NewDetector(repro.Config{
		Tau:       4,
		TauPrime:  4,
		Statistic: "kl",
		// 2-D answers → k-means signatures with 6 clusters per wave (a
		// one-off seeded builder from the stream-safe factory).
		Builder:   repro.KMeansFactory(6)(1),
		Bootstrap: repro.BootstrapConfig{Replicates: 800, Alpha: 0.05},
	})
	if err != nil {
		log.Fatal(err)
	}

	const waves = 24
	const changeAt = 12
	fmt.Println("wave  respondents  mean(sat, spend)     score   alarm")
	for wave := 0; wave < waves; wave++ {
		n := 150 + rng.Intn(100) // participation varies wave to wave
		answers := make([][]float64, n)
		meanSat, meanSpend := 0.0, 0.0
		for i := range answers {
			var sat, spend float64
			if wave < changeAt {
				// One homogeneous segment centred at (5, 5).
				sat = 5 + rng.NormFloat64()
				spend = 5 + rng.NormFloat64()
			} else {
				// Two polarized segments, same overall mean (5, 5):
				// half the base loves the product, half is churning.
				if rng.Intn(2) == 0 {
					sat = 8 + rng.NormFloat64()
					spend = 8 + rng.NormFloat64()
				} else {
					sat = 2 + rng.NormFloat64()
					spend = 2 + rng.NormFloat64()
				}
			}
			answers[i] = []float64{sat, spend}
			meanSat += sat
			meanSpend += spend
		}
		meanSat /= float64(n)
		meanSpend /= float64(n)

		point, err := det.Push(repro.NewBag(wave, answers))
		if err != nil {
			log.Fatal(err)
		}
		score, mark := "  -   ", ""
		if point != nil {
			score = fmt.Sprintf("%+.3f", point.Score)
			if point.Alarm {
				mark = "  <<< segmentation shift"
			}
		}
		fmt.Printf("%4d  %11d  (%4.2f, %4.2f)      %s%s\n",
			wave, n, meanSat, meanSpend, score, mark)
	}
	fmt.Printf("\nThe population split at wave %d while the mean stayed at (5, 5):\n", changeAt)
	fmt.Println("a mean-based monitor sees nothing; the bag detector raises an alarm.")
}
