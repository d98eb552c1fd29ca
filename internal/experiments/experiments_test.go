package experiments

import (
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/enron"
	"repro/internal/randx"
	"repro/internal/synth"
)

func TestFig1ReproducesTheClaim(t *testing.T) {
	res, err := Fig1(1)
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: the proposed method detects both changes.
	if res.Proposed.Recall() < 1 {
		t.Errorf("proposed method missed a change: %v", res.Proposed)
	}
	// The baselines, even at their best fixed threshold, must do
	// strictly worse than the proposed method (their input carries no
	// signal). Give them the benefit of the doubt on one lucky change.
	if res.CF.F1() >= res.Proposed.F1() {
		t.Errorf("ChangeFinder F1 %g >= proposed %g — mean sequence should be uninformative",
			res.CF.F1(), res.Proposed.F1())
	}
	if res.KCD.F1() >= res.Proposed.F1() {
		t.Errorf("KCD F1 %g >= proposed %g", res.KCD.F1(), res.Proposed.F1())
	}
	if !strings.Contains(res.Report, "Figure 1") {
		t.Error("report missing")
	}
}

func TestFig6ReproducesTheClaims(t *testing.T) {
	res, err := Fig6(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 5 {
		t.Fatalf("%d datasets", len(res.Datasets))
	}
	byID := map[int]Fig6DatasetResult{}
	for _, dr := range res.Datasets {
		byID[int(dr.Dataset)] = dr
	}
	// Claims 1-3: no (or almost no) alarms on the no-change datasets.
	for id := 1; id <= 3; id++ {
		if len(byID[id].Alarms) > 1 {
			t.Errorf("dataset %d raised %d alarms: %v", id, len(byID[id].Alarms), byID[id].Alarms)
		}
	}
	// Claim 4: the dataset-4 jump is detected…
	if byID[4].Metrics.Recall() < 1 {
		t.Errorf("dataset 4 jump not detected: alarms %v", byID[4].Alarms)
	}
	// …and the dataset-5 change is NOT ("our method was able to raise
	// alerts successfully for dataset 4, but not for Dataset 5").
	if len(byID[5].Alarms) != 0 {
		t.Errorf("dataset 5 raised alarms %v; the paper misses this change", byID[5].Alarms)
	}
	// Claim: CI widths are larger under drift/unstationarity. The drift
	// datasets (3, 5) must have wider mean intervals than the stationary
	// ones (1, 2). (Dataset 4's mean width is inflated by the windows
	// straddling the jump, so it is excluded from this comparison.)
	drift := (byID[3].MeanCIWidth + byID[5].MeanCIWidth) / 2
	stationary := (byID[1].MeanCIWidth + byID[2].MeanCIWidth) / 2
	if drift <= stationary {
		t.Errorf("mean CI width drift %g <= stationary %g", drift, stationary)
	}
	if !strings.Contains(res.Report, "Figure 6") {
		t.Error("report missing")
	}
}

func TestTable1Report(t *testing.T) {
	rep := Table1Report()
	for _, want := range []string{"lying", "rope jumping", "Nordic walking", "12"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Table 1 report missing %q", want)
		}
	}
}

func TestFig7Scaled(t *testing.T) {
	res, err := Fig7(3, Fig7Options{
		Subjects:            1,
		Replicates:          150,
		MeanRecordsPerBag:   120,
		MeanBagsPerActivity: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Subjects[0]
	// "Plausible accuracy": at least half of the activity transitions
	// raise alarms, and precision stays high (few false alarms).
	if sr.Metrics.Recall() < 0.5 {
		t.Errorf("recall %g too low: %v", sr.Metrics.Recall(), sr.Metrics)
	}
	if sr.Metrics.Precision() < 0.6 {
		t.Errorf("precision %g too low: %v", sr.Metrics.Precision(), sr.Metrics)
	}
	if !strings.Contains(res.Report, "Subject 1") {
		t.Error("report missing")
	}
}

func TestFig10Scaled(t *testing.T) {
	res, err := Fig10(4, Fig10Options{
		Graph:      bipartite.Section53Options{NodeLambda: 30, Steps: 120, TotalWeight: 6000},
		Replicates: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 4 {
		t.Fatalf("%d datasets", len(res.Datasets))
	}
	for _, dr := range res.Datasets {
		// Headline claim: every change detected by at least one feature.
		if dr.CombinedMetrics.Recall() < 0.5 {
			t.Errorf("%v: combined recall %g: %v", dr.Dataset, dr.CombinedMetrics.Recall(), dr.CombinedMetrics)
		}
		// The strength features (5, 6) must beat the second-degree
		// features (3, 4) on datasets where volume shifts (1 and 2).
		if dr.Dataset == bipartite.TrafficVolume {
			var strengthF1, secondF1 float64
			for _, fr := range dr.Features {
				switch fr.Feature {
				case bipartite.SrcStrength, bipartite.DstStrength:
					strengthF1 += fr.Metrics.F1() / 2
				case bipartite.SrcSecondDegree, bipartite.DstSecondDegree:
					secondF1 += fr.Metrics.F1() / 2
				}
			}
			if strengthF1 <= secondF1 {
				t.Errorf("dataset 1: strength F1 %g <= second-degree F1 %g", strengthF1, secondF1)
			}
		}
	}
	if !strings.Contains(res.Report, "Figure 10") {
		t.Error("report missing")
	}
}

func TestFig11Scaled(t *testing.T) {
	res, err := Fig11(5, Fig11Options{
		Corpus:     enron.Config{Employees: 40},
		Replicates: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 17 {
		t.Fatalf("%d event outcomes", len(res.Outcomes))
	}
	detected := 0
	gsDetected := 0
	for _, o := range res.Outcomes {
		if o.Detected {
			detected++
			if o.Event.DetectedByGraphScope {
				gsDetected++
			}
		}
	}
	// Shape claim: a clear majority of the events coincide with alarms,
	// including most of the GraphScope-detected subset.
	if detected < 9 {
		t.Errorf("only %d/17 events detected", detected)
	}
	if gsDetected < 5 {
		t.Errorf("only %d/8 GraphScope events detected", gsDetected)
	}
	if !strings.Contains(res.Report, "ENRON") {
		t.Error("report missing")
	}
}

func TestAblation(t *testing.T) {
	res, err := Ablation(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 12 {
		t.Fatalf("only %d ablation rows", len(res.Rows))
	}
	byVariant := map[string]AblationRow{}
	for _, r := range res.Rows {
		byVariant[r.Study+"/"+r.Variant] = r
	}
	// The adaptive threshold must match the oracle fixed threshold's F1
	// (that is the practical point of §4: no tuning needed).
	adaptive := byVariant["threshold/adaptive (CI overlap)"].Metrics.F1()
	oracle := byVariant["threshold/best fixed (oracle)"].Metrics.F1()
	if adaptive < oracle-0.15 {
		t.Errorf("adaptive F1 %g far below oracle fixed %g", adaptive, oracle)
	}
	// The baseline configuration must detect all three planted changes.
	if got := byVariant["score/KL"].Metrics.Recall(); got < 1 {
		t.Errorf("baseline KL recall %g", got)
	}
	// Bigger bootstrap must not hurt detection.
	if byVariant["bootstrapT/T=5000"].Metrics.F1() < byVariant["bootstrapT/T=50"].Metrics.F1()-0.25 {
		t.Errorf("T=5000 much worse than T=50: %v vs %v",
			byVariant["bootstrapT/T=5000"].Metrics, byVariant["bootstrapT/T=50"].Metrics)
	}
	if !strings.Contains(res.Report, "Ablation studies") {
		t.Error("report missing")
	}
}

// TestFig6MatrixDeterministicAcrossWorkers guards the fig6 migration off
// the stateful-builder path: the dissimilarity matrix is built through
// the k-means factory with per-bag split seeds, so it must be
// bit-identical for every worker count (the old path threaded one shared
// RNG through every build and was tied to sequential order).
func TestFig6MatrixDeterministicAcrossWorkers(t *testing.T) {
	const seed = 2
	for _, ds := range synth.AllSection51()[:2] {
		rng := randx.New(seed)
		seq, err := ds.Generate(rng.Split(int64(ds)))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fig6EMDMatrix(seq, seed, ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			m, err := fig6EMDMatrix(seq, seed, ds, workers)
			if err != nil {
				t.Fatal(err)
			}
			if m.N() != ref.N() {
				t.Fatalf("ds %v: size %d vs %d", ds, m.N(), ref.N())
			}
			for i := 0; i < m.N(); i++ {
				for j := 0; j < m.N(); j++ {
					if m.At(i, j) != ref.At(i, j) {
						t.Fatalf("ds %v workers=%d: cell (%d,%d) = %g, want %g", ds, workers, i, j, m.At(i, j), ref.At(i, j))
					}
				}
			}
		}
	}
}

// TestFig6Deterministic: the whole experiment (matrix, MDS, detector,
// report) is a pure function of its seed.
func TestFig6Deterministic(t *testing.T) {
	a, err := Fig6(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report != b.Report {
		t.Error("Fig6 report differs between identical runs")
	}
}

func TestPairwiseScale(t *testing.T) {
	opts := PairwiseScaleOptions{N: 32, PointsPerBag: 20}
	res, err := PairwiseScale(5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitIdentical {
		t.Error("worker count changed the matrix")
	}
	if !strings.Contains(res.Report, "Pairwise EMD at corpus scale") {
		t.Error("report missing")
	}
}

// TestSolverScale drives the `repro -exp solverscale` study at a small
// scale: the report must render, every row must carry counters, and the
// bit-transparent cache and the block=1 cost agreement are enforced
// inside the driver (it errors on a mismatch or past 1e-9).
func TestSolverScale(t *testing.T) {
	res, err := SolverScale(3, SolverScaleOptions{Ks: []int{8, 24}, Pairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Pivots <= 0 || r.RefillRows <= 0 || r.PerOp <= 0 {
			t.Errorf("K=%d: missing pivot/refill/timing counters: %+v", r.K, r)
		}
		if r.UncachedGroundEvals <= 0 || r.CachedGroundEvals != 0 || r.CacheHits <= 0 {
			t.Errorf("K=%d: cache amortization counters off: %+v", r.K, r)
		}
		if r.MaxRelDiff > 1e-9 {
			t.Errorf("K=%d: rel diff %g escaped the driver's own gate", r.K, r.MaxRelDiff)
		}
	}
	if !strings.Contains(res.Report, "block-pricing") || strings.Contains(res.Report, "classic") {
		t.Errorf("report should describe the one block-pricing path:\n%s", res.Report)
	}
}
