package core

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/randx"
	"repro/internal/signature"
)

var updateGolden = flag.Bool("update", false, "rewrite golden test fixtures instead of comparing against them")

// The golden end-to-end trace: a frozen detector run over a 200-bag
// synthetic sequence whose scores, intervals, κ and alarms are
// committed to testdata and asserted BIT-identical on every run.
// Solver-internal changes that are supposed to be score-invariant
// (pricing, pivoting, buffer management below the large threshold)
// cannot silently drift past this test: any last-bit change in any of
// the ~188 inspection points fails loudly.
//
// Regenerate deliberately (after a change that is MEANT to alter
// scores) with:
//
//	go test ./internal/core -run TestGoldenDetectorTrace -update
//
// Floats are serialized as Go hex float strings ('x' format), which
// round-trip exactly and make the fixture diffable; Kappa is "NaN"
// until the first comparable interval exists.

// goldenTraces enumerates the frozen fixtures: one per statistic on the
// 1-D histogram workload, and one k-means trace that pins the k-means++
// and Lloyd bits and the simplex EMD (3-D signatures never take the 1-D
// closed form). Statistic "" is the legacy KL fixture (predating the
// statistic layer — its bytes must stay untouched, so its header
// carries no statistic field and the run configures the detector
// exactly as the seed did).
var goldenTraces = []struct {
	name      string
	path      string
	statistic string
	kmeans    bool // 3-D k-means workload instead of the 1-D histogram one
	changes   []int
}{
	{name: "kl", path: "testdata/golden_detector_trace.json", changes: []int{60, 130}},
	{name: "lr", path: "testdata/golden_detector_trace_lr.json", statistic: "lr", changes: []int{60, 130}},
	{name: "kmeans", path: "testdata/golden_detector_trace_kmeans.json", kmeans: true, changes: []int{40, 80}},
}

type goldenPoint struct {
	T     int    `json:"t"`
	Score string `json:"score"`
	Lo    string `json:"lo"`
	Up    string `json:"up"`
	Point string `json:"point"`
	Kappa string `json:"kappa"`
	Alarm bool   `json:"alarm"`
}

type goldenTrace struct {
	Description string `json:"description"`
	Seed        int64  `json:"seed"`
	Bags        int    `json:"bags"`
	Tau         int    `json:"tau"`
	TauPrime    int    `json:"tau_prime"`
	Replicates  int    `json:"replicates"`
	// Statistic is the registry name the trace was run under; empty in
	// the legacy KL fixture, which predates the statistic layer.
	Statistic string `json:"statistic,omitempty"`
	// Builder names the signature builder when it is not the legacy
	// 1-D histogram.
	Builder string        `json:"builder,omitempty"`
	Points  []goldenPoint `json:"points"`
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// goldenSequence generates the frozen 200-bag workload: 1-D Gaussian
// bags with mean shifts at t=60 (0→3) and t=130 (3→1), 120 points per
// bag, all drawn from one seeded stream.
func goldenSequence() bag.Sequence {
	rng := randx.New(97531)
	seq := make(bag.Sequence, 200)
	for t := range seq {
		mu := 0.0
		switch {
		case t >= 130:
			mu = 1
		case t >= 60:
			mu = 3
		}
		vals := make([]float64, 120)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		seq[t] = bag.FromScalars(t, vals)
	}
	return seq
}

func goldenConfig() Config {
	return Config{
		Tau:       6,
		TauPrime:  6,
		Builder:   signature.NewHistogramBuilder(-4, 7, 40),
		Bootstrap: bootstrap.Config{Replicates: 400, Alpha: 0.05},
		Seed:      20260729,
	}
}

// goldenKMeansSequence generates the frozen k-means workload: 120 3-D
// Gaussian bags of 120 points (the serve-kmeans shape), mean shifts at
// t=40 (0→(2,0,0)) and t=80 (→(2,2,−1)). Two bags in every seven are
// duplicate-heavy: one keeps only the 8 corners μ±1 (fewer distinct
// points than K, so k-means++ seeding stops at 8 centers), the other
// rounds to
// the integer lattice.
func goldenKMeansSequence() bag.Sequence {
	rng := randx.New(86420)
	seq := make(bag.Sequence, 120)
	for t := range seq {
		mu := [3]float64{}
		switch {
		case t >= 80:
			mu = [3]float64{2, 2, -1}
		case t >= 40:
			mu = [3]float64{2, 0, 0}
		}
		pts := make([][]float64, 120)
		for i := range pts {
			p := make([]float64, 3)
			for j := range p {
				p[j] = rng.Normal(mu[j], 1)
				switch t % 7 {
				case 3:
					p[j] = mu[j] + math.Copysign(1, p[j]-mu[j])
				case 5:
					p[j] = math.Round(p[j])
				}
			}
			pts[i] = p
		}
		seq[t] = bag.Bag{T: t, Points: pts}
	}
	return seq
}

func goldenKMeansConfig() Config {
	return Config{
		Tau:       4,
		TauPrime:  4,
		Builder:   signature.KMeansFactory(16, cluster.Config{})(31337),
		Bootstrap: bootstrap.Config{Replicates: 100, Alpha: 0.05},
		Seed:      20261019,
	}
}

func runGoldenTrace(t *testing.T, statistic string, kmeans bool) goldenTrace {
	t.Helper()
	cfg, seq := goldenConfig(), goldenSequence()
	desc := "frozen detector run: 200 1-D Gaussian bags, mean shifts at t=60 and t=130; asserts bit-identical scores/intervals on every run (floats are exact hex; regenerate with -update)"
	if statistic != "" {
		desc = "frozen " + statistic + " detector run: 200 1-D Gaussian bags, mean shifts at t=60 and t=130; asserts bit-identical scores/intervals on every run (floats are exact hex; regenerate with -update)"
	}
	builder := ""
	if kmeans {
		cfg, seq = goldenKMeansConfig(), goldenKMeansSequence()
		desc = "frozen k-means detector run: 120 3-D Gaussian bags of 120 points, K=16 k-means signatures, Euclidean simplex EMD, mean shifts at t=40 and t=80; asserts bit-identical scores/intervals on every run (floats are exact hex; regenerate with -update)"
		builder = "kmeans16"
	}
	cfg.Statistic = statistic
	points, err := Run(cfg, seq)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	tr := goldenTrace{
		Description: desc,
		Seed:        cfg.Seed,
		Bags:        len(seq),
		Tau:         cfg.Tau,
		TauPrime:    cfg.TauPrime,
		Replicates:  cfg.Bootstrap.Replicates,
		Statistic:   statistic,
		Builder:     builder,
	}
	for _, p := range points {
		tr.Points = append(tr.Points, goldenPoint{
			T:     p.T,
			Score: hexFloat(p.Score),
			Lo:    hexFloat(p.Interval.Lo),
			Up:    hexFloat(p.Interval.Up),
			Point: hexFloat(p.Interval.Point),
			Kappa: hexFloat(p.Kappa),
			Alarm: p.Alarm,
		})
	}
	return tr
}

func TestGoldenDetectorTrace(t *testing.T) {
	for _, tc := range goldenTraces {
		t.Run(tc.name, func(t *testing.T) { checkGoldenTrace(t, tc.path, tc.statistic, tc.kmeans) })
	}
}

func checkGoldenTrace(t *testing.T, path, statistic string, kmeans bool) {
	got := runGoldenTrace(t, statistic, kmeans)

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d points)", path, len(got.Points))
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create it): %v", err)
	}
	var want goldenTrace
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden fixture: %v", err)
	}
	if want.Seed != got.Seed || want.Bags != got.Bags || want.Tau != got.Tau ||
		want.TauPrime != got.TauPrime || want.Replicates != got.Replicates ||
		want.Statistic != got.Statistic || want.Builder != got.Builder {
		t.Fatalf("golden fixture header %+v does not describe this test's configuration; regenerate with -update", want)
	}
	if len(want.Points) != len(got.Points) {
		t.Fatalf("golden trace has %d points, run produced %d", len(want.Points), len(got.Points))
	}
	mismatches := 0
	for i := range want.Points {
		w, g := want.Points[i], got.Points[i]
		if w != g {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("point %d (t=%d) drifted:\n  golden: %+v\n  run:    %+v", i, w.T, w, g)
			}
		}
	}
	if mismatches > 3 {
		t.Errorf("... and %d more drifted points", mismatches-3)
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d points are not bit-identical to the golden trace; if the change is MEANT to move scores, regenerate with -update and explain the drift in the commit", mismatches, len(want.Points))
	}

	// The fixture must round-trip its own hex floats (guards against a
	// hand-edited file that parses but lost exactness).
	for i, p := range want.Points {
		for _, fv := range []string{p.Score, p.Lo, p.Up, p.Point, p.Kappa} {
			v, err := strconv.ParseFloat(fv, 64)
			if err != nil {
				t.Fatalf("point %d: unparsable float %q: %v", i, fv, err)
			}
			if !math.IsNaN(v) && hexFloat(v) != fv {
				t.Fatalf("point %d: float %q does not round-trip", i, fv)
			}
		}
	}
}

// TestGoldenTraceHasSignal sanity-checks the fixture itself: the frozen
// run must actually alarm near both injected changes, so the golden
// trace keeps covering the full score→interval→κ→alarm pipeline (a
// fixture of all-quiet points would pin bits but guard nothing).
func TestGoldenTraceHasSignal(t *testing.T) {
	for _, tc := range goldenTraces {
		t.Run(tc.name, func(t *testing.T) {
			got := runGoldenTrace(t, tc.statistic, tc.kmeans)
			alarmNear := func(c int) bool {
				for _, p := range got.Points {
					if p.Alarm && p.T >= c-3 && p.T <= c+8 {
						return true
					}
				}
				return false
			}
			for _, c := range tc.changes {
				if !alarmNear(c) {
					t.Fatalf("golden run no longer alarms near the injected change at t=%d", c)
				}
			}
			nan := 0
			for _, p := range got.Points {
				if p.Kappa == "NaN" {
					nan++
				}
			}
			if nan == 0 || nan >= len(got.Points) {
				t.Fatalf("expected a warm-up prefix of NaN κ points and a comparable suffix, got %d/%d NaN", nan, len(got.Points))
			}
		})
	}
}
