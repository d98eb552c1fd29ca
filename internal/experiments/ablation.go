package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/randx"
	"repro/internal/signature"
)

// AblationResult holds the design-choice studies of DESIGN.md §5 that
// are not directly tied to a single paper figure: score type, window
// lengths, weighting, bootstrap size, and adaptive-vs-fixed thresholding.
type AblationResult struct {
	Rows   []AblationRow
	Report string
}

// AblationRow is one configuration's outcome on the shared workload.
type AblationRow struct {
	Study   string
	Variant string
	Metrics eval.Metrics
	// MeanCIWidth summarizes interval sharpness (NaN when not relevant).
	MeanCIWidth float64
}

// ablationWorkload builds a repeatable 1-D workload with three planted
// changes of decreasing magnitude plus a noisy stretch: large jump at 20,
// medium at 40, small at 60.
func ablationWorkload(seed int64) (bag.Sequence, []int) {
	rng := randx.New(seed)
	const n = 80
	changes := []int{20, 40, 60}
	mu := func(t int) float64 {
		switch {
		case t < 20:
			return 0
		case t < 40:
			return 5
		case t < 60:
			return 8
		default:
			return 9.5
		}
	}
	seq := make(bag.Sequence, n)
	for t := 0; t < n; t++ {
		size := 60 + rng.Intn(60)
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = rng.Normal(mu(t), 1.5)
		}
		seq[t] = bag.FromScalars(t, vals)
	}
	return seq, changes
}

// Ablation runs every study on the shared workload.
func Ablation(seed int64) (*AblationResult, error) {
	seq, changes := ablationWorkload(seed)
	builder := signature.NewHistogramBuilder(-6, 16, 44)
	res := &AblationResult{}

	run := func(study, variant string, cfg core.Config) error {
		points, err := core.Run(cfg, seq)
		if err != nil {
			return fmt.Errorf("ablation %s/%s: %w", study, variant, err)
		}
		row := AblationRow{
			Study:   study,
			Variant: variant,
			Metrics: eval.Match(core.Alarms(points), changes, 1, 4),
		}
		for _, p := range points {
			row.MeanCIWidth += p.Interval.Width()
		}
		row.MeanCIWidth /= float64(len(points))
		res.Rows = append(res.Rows, row)
		return nil
	}

	base := func() core.Config {
		return core.Config{
			Tau: 5, TauPrime: 5,
			Builder:   builder,
			Bootstrap: bootstrap.Config{Replicates: 500, Alpha: 0.05},
			Seed:      seed,
		}
	}

	// Study 1: score type.
	for _, s := range []struct{ label, name string }{{"KL", "kl"}, {"LR", "lr"}} {
		cfg := base()
		cfg.Statistic = s.name
		if err := run("score", s.label, cfg); err != nil {
			return nil, err
		}
	}
	// Study 2: window lengths.
	for _, w := range []struct{ tau, tp int }{{3, 3}, {5, 5}, {8, 8}, {8, 3}} {
		cfg := base()
		cfg.Tau, cfg.TauPrime = w.tau, w.tp
		if err := run("window", fmt.Sprintf("tau=%d,tau'=%d", w.tau, w.tp), cfg); err != nil {
			return nil, err
		}
	}
	// Study 3: weighting.
	for _, w := range []core.Weighting{core.WeightUniform, core.WeightDiscounted} {
		cfg := base()
		cfg.Weighting = w
		name := "uniform"
		if w == core.WeightDiscounted {
			name = "discounted"
		}
		if err := run("weighting", name, cfg); err != nil {
			return nil, err
		}
	}
	// Study 4: bootstrap size.
	for _, reps := range []int{50, 500, 5000} {
		cfg := base()
		cfg.Bootstrap.Replicates = reps
		if err := run("bootstrapT", fmt.Sprintf("T=%d", reps), cfg); err != nil {
			return nil, err
		}
	}
	// Study 5: raw vs normalized signature mass.
	for _, raw := range []bool{false, true} {
		cfg := base()
		cfg.RawMass = raw
		name := "normalized"
		if raw {
			name = "raw-mass"
		}
		if err := run("mass", name, cfg); err != nil {
			return nil, err
		}
	}

	// Study 6: adaptive CI threshold vs best fixed threshold on the KL
	// score series — the §4 motivation.
	cfg := base()
	points, err := core.Run(cfg, seq)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Study:   "threshold",
		Variant: "adaptive (CI overlap)",
		Metrics: eval.Match(core.Alarms(points), changes, 1, 4),
	})
	times := make([]int, len(points))
	scores := make([]float64, len(points))
	for i, p := range points {
		times[i] = p.T
		scores[i] = p.Score
	}
	sweep := eval.SweepThreshold(scores, times, changes, 1, 4, thresholdGrid(scores))
	bestFixed, _ := eval.BestF1(sweep)
	res.Rows = append(res.Rows, AblationRow{
		Study:   "threshold",
		Variant: "best fixed (oracle)",
		Metrics: bestFixed,
	})

	res.Report = res.render()
	return res, nil
}

func (r *AblationResult) render() string {
	var b strings.Builder
	b.WriteString(header("Ablation studies (DESIGN.md §5) — 3 planted changes of decreasing size"))
	fmt.Fprintf(&b, "%-11s %-22s %-44s %s\n", "study", "variant", "metrics", "mean CI width")
	last := ""
	for _, row := range r.Rows {
		study := row.Study
		if study == last {
			study = ""
		} else if last != "" {
			b.WriteString("\n")
		}
		last = row.Study
		fmt.Fprintf(&b, "%-11s %-22s %-44s %.3f\n", study, row.Variant, row.Metrics.String(), row.MeanCIWidth)
	}
	b.WriteString("\nreading guide: both scores detect all changes here (LR is the noisier\n")
	b.WriteString("one — wider intervals); oversized windows start leaking false alarms;\n")
	b.WriteString("T only stabilizes the interval estimate (detection quality saturates\n")
	b.WriteString("at small T); raw-mass partial matching lets the varying bag sizes\n")
	b.WriteString("inject mass noise — much wider intervals and a missed change — which\n")
	b.WriteString("is why the detector normalizes signatures by default; the adaptive\n")
	b.WriteString("threshold matches an ORACLE fixed threshold without being given one.\n")
	return b.String()
}
