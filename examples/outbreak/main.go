// Outbreak detection (the paper's second motivating scenario): patients
// arrive at a hospital at a varying daily rate, and each day's analysis
// must work with however many records arrived — a bag of data per day.
//
// Each patient record is (age, temperature, symptom severity). When an
// outbreak starts, a subpopulation of young patients with high fever
// appears and the arrival rate rises. The detector consumes the raw
// daily bags; no resampling or per-day aggregation is needed even though
// every day has a different number of patients.
//
// Run: go run ./examples/outbreak
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	det, err := repro.NewDetector(repro.Config{
		Tau:       5,
		TauPrime:  3, // shorter test window: we want to react fast
		Statistic: "kl",
		Builder:   repro.KMeansFactory(8)(3), // one-off seeded builder from the stream-safe factory

		Bootstrap: repro.BootstrapConfig{Replicates: 800, Alpha: 0.05},
	})
	if err != nil {
		log.Fatal(err)
	}

	const days = 40
	const outbreakDay = 25
	fmt.Println("day  patients  score   alarm")
	for day := 0; day < days; day++ {
		// Baseline arrivals ~ Poisson-ish 30-60/day; outbreak adds more.
		n := 30 + rng.Intn(31)
		extra := 0
		if day >= outbreakDay {
			extra = 10 + rng.Intn(20)
		}
		patients := make([][]float64, 0, n+extra)
		for i := 0; i < n; i++ {
			age := 40 + 18*rng.NormFloat64()
			temp := 36.8 + 0.5*rng.NormFloat64()
			severity := 2 + rng.NormFloat64()
			patients = append(patients, []float64{age, temp, severity})
		}
		for i := 0; i < extra; i++ {
			// Outbreak cohort: young, feverish, severe.
			age := 12 + 6*rng.NormFloat64()
			temp := 39.2 + 0.6*rng.NormFloat64()
			severity := 6 + 1.5*rng.NormFloat64()
			patients = append(patients, []float64{age, temp, severity})
		}

		point, err := det.Push(repro.NewBag(day, patients))
		if err != nil {
			log.Fatal(err)
		}
		score, mark := "   -  ", ""
		if point != nil {
			score = fmt.Sprintf("%+.3f", point.Score)
			if point.Alarm {
				mark = "  <<< OUTBREAK SIGNATURE"
			}
		}
		fmt.Printf("%3d  %8d  %s%s\n", day, len(patients), score, mark)
	}
	fmt.Printf("\nOutbreak began on day %d (young, high-fever cohort + higher volume).\n", outbreakDay)
	fmt.Println("Note the detector handles a different number of patients every day.")
}
