// Command repro regenerates the paper's evaluation artifacts (Fig. 1,
// Fig. 6, Table 1, Fig. 7, Fig. 10, Fig. 11) as plain-text reports.
//
// Usage:
//
//	repro -exp fig1            # one artifact
//	repro -exp all             # everything (paper-scale; takes minutes)
//	repro -exp fig10 -scale small -seed 7
//	repro -exp ablation        # the DESIGN.md §5 design-choice studies
//	repro -exp engine          # multi-stream engine scale-out demo
//	repro -exp pairwise        # tiled pairwise-EMD demo
//	repro -exp solverscale     # block-pricing EMD solver scaling study
//	repro -exp distprofile     # offline distance-profile segmentation demo
//
// The -scale small option shrinks the workloads (fewer nodes, records and
// bootstrap replicates) so every figure regenerates in seconds; the shape
// claims still hold at that scale. EXPERIMENTS.md records a full-scale
// run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bipartite"
	"repro/internal/enron"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig1|fig6|table1|fig7|fig10|fig11|ablation|engine|pairwise|solverscale|distprofile|all")
	seed := flag.Int64("seed", 1, "master RNG seed")
	scale := flag.String("scale", "full", "workload scale: full|small")
	flag.Parse()

	small := *scale == "small"
	if *scale != "full" && *scale != "small" {
		fmt.Fprintf(os.Stderr, "repro: unknown scale %q (want full or small)\n", *scale)
		os.Exit(2)
	}

	runners := map[string]func() (string, error){
		"fig1": func() (string, error) {
			r, err := experiments.Fig1(*seed)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"fig6": func() (string, error) {
			r, err := experiments.Fig6(*seed)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"table1": func() (string, error) {
			return experiments.Table1Report(), nil
		},
		"fig7": func() (string, error) {
			opts := experiments.Fig7Options{}
			if small {
				opts = experiments.Fig7Options{
					Subjects:            3,
					Replicates:          200,
					MeanRecordsPerBag:   150,
					MeanBagsPerActivity: 10,
				}
			}
			r, err := experiments.Fig7(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"fig10": func() (string, error) {
			opts := experiments.Fig10Options{}
			if small {
				opts = experiments.Fig10Options{
					Graph:      bipartite.Section53Options{NodeLambda: 40, Steps: 200, TotalWeight: 10000},
					Replicates: 200,
				}
			}
			r, err := experiments.Fig10(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"fig11": func() (string, error) {
			opts := experiments.Fig11Options{}
			if small {
				opts = experiments.Fig11Options{
					Corpus:     enron.Config{Employees: 60},
					Replicates: 200,
				}
			}
			r, err := experiments.Fig11(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"ablation": func() (string, error) {
			r, err := experiments.Ablation(*seed)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"engine": func() (string, error) {
			opts := experiments.EngineScaleOptions{}
			if small {
				opts = experiments.EngineScaleOptions{Streams: 16, Steps: 24, Replicates: 100}
			}
			r, err := experiments.EngineScale(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"pairwise": func() (string, error) {
			opts := experiments.PairwiseScaleOptions{}
			if small {
				opts = experiments.PairwiseScaleOptions{N: 48, PointsPerBag: 25}
			}
			r, err := experiments.PairwiseScale(*seed, opts)
			if err != nil {
				if r != nil {
					fmt.Print(r.Report)
				}
				return "", err
			}
			return r.Report, nil
		},
		"solverscale": func() (string, error) {
			opts := experiments.SolverScaleOptions{}
			if small {
				opts = experiments.SolverScaleOptions{Ks: []int{16, 32, 64}, Pairs: 2}
			}
			r, err := experiments.SolverScale(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"distprofile": func() (string, error) {
			opts := experiments.DistProfileOptions{}
			if small {
				opts = experiments.DistProfileOptions{N: 80, PointsPerBag: 60, Replicates: 99}
			}
			r, err := experiments.DistProfileExperiment(*seed, opts)
			if err != nil {
				if r != nil {
					fmt.Print(r.Report)
				}
				return "", err
			}
			return r.Report, nil
		},
	}

	order := []string{"fig1", "fig6", "table1", "fig7", "fig10", "fig11", "ablation", "engine", "pairwise", "solverscale", "distprofile"}
	var selected []string
	if *exp == "all" {
		selected = order
	} else if _, ok := runners[*exp]; ok {
		selected = []string{*exp}
	} else {
		fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (want one of %v or all)\n", *exp, order)
		os.Exit(2)
	}

	for _, name := range selected {
		start := time.Now()
		report, err := runners[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(report)
		fmt.Printf("\n[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
