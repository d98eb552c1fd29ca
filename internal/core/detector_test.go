package core

import (
	"math"
	"testing"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/randx"
	"repro/internal/signature"
)

// gaussianSeq builds a sequence of 1-D bags: bags [0,change) from
// N(mu1,1), bags [change,n) from N(mu2,1), each with size points.
func gaussianSeq(rng *randx.RNG, n, change, size int, mu1, mu2 float64) bag.Sequence {
	seq := make(bag.Sequence, n)
	for t := 0; t < n; t++ {
		mu := mu1
		if t >= change {
			mu = mu2
		}
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		seq[t] = bag.FromScalars(t, vals)
	}
	return seq
}

func histCfg() Config {
	return Config{
		Tau:      5,
		TauPrime: 5,
		Builder:  signature.NewHistogramBuilder(-10, 10, 40),
		Bootstrap: bootstrap.Config{
			Replicates: 300,
			Alpha:      0.05,
		},
		Seed: 1,
	}
}

func TestConfigValidation(t *testing.T) {
	b := signature.NewHistogramBuilder(0, 1, 4)
	cases := map[string]Config{
		"tau0":    {Tau: 0, TauPrime: 5, Builder: b},
		"tauP0":   {Tau: 5, TauPrime: 0, Builder: b},
		"noBuild": {Tau: 5, TauPrime: 5},
		"lrTauP1": {Tau: 5, TauPrime: 1, Statistic: "lr", Builder: b},
		"badStat": {Tau: 5, TauPrime: 5, Statistic: "nope", Builder: b},
		"alphaNaN": {Tau: 5, TauPrime: 5, Builder: b,
			Bootstrap: bootstrap.Config{Alpha: math.NaN()}},
		"alphaOne": {Tau: 5, TauPrime: 5, Builder: b, Bootstrap: bootstrap.Config{Alpha: 1}},
		"alphaNeg": {Tau: 5, TauPrime: 5, Builder: b, Bootstrap: bootstrap.Config{Alpha: -0.05}},
		"repsNeg":  {Tau: 5, TauPrime: 5, Builder: b, Bootstrap: bootstrap.Config{Replicates: -5}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected config error", name)
		}
	}
	good := Config{Tau: 5, TauPrime: 5, Builder: b}
	if _, err := New(good); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestPushWarmup(t *testing.T) {
	d, err := New(histCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(2)
	seq := gaussianSeq(rng, 12, 99, 50, 0, 0)
	var first *Point
	for i, b := range seq {
		p, err := d.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		if i < d.WindowSize()-1 {
			if p != nil {
				t.Fatalf("point produced during warmup at i=%d", i)
			}
			continue
		}
		if p == nil {
			t.Fatalf("no point after window filled at i=%d", i)
		}
		if first == nil {
			first = p
		}
	}
	// First inspection time is τ (reference fills indices 0..τ-1).
	if first.T != 5 {
		t.Errorf("first inspection T = %d, want 5", first.T)
	}
}

func TestDetectsMeanShiftKL(t *testing.T) {
	rng := randx.New(3)
	seq := gaussianSeq(rng, 30, 15, 100, 0, 6)
	points, err := Run(histCfg(), seq)
	if err != nil {
		t.Fatal(err)
	}
	// The score at the change point must dominate the others.
	var atChange, maxElsewhere float64
	for _, p := range points {
		if p.T == 15 {
			atChange = p.Score
		} else if p.T < 11 || p.T > 19 {
			if p.Score > maxElsewhere {
				maxElsewhere = p.Score
			}
		}
	}
	if atChange <= maxElsewhere {
		t.Errorf("score at change %g not above background %g", atChange, maxElsewhere)
	}
	// An alarm should be raised at/near the change point.
	alarms := Alarms(points)
	foundNear := false
	for _, a := range alarms {
		if a >= 14 && a <= 17 {
			foundNear = true
		}
	}
	if !foundNear {
		t.Errorf("no alarm near t=15; alarms=%v", alarms)
	}
}

func TestDetectsMeanShiftLR(t *testing.T) {
	rng := randx.New(4)
	seq := gaussianSeq(rng, 30, 15, 100, 0, 6)
	cfg := histCfg()
	cfg.Statistic = "lr"
	points, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	var atChange float64
	background := 0.0
	count := 0
	for _, p := range points {
		if p.T == 15 {
			atChange = p.Score
		} else if p.T < 11 || p.T > 19 {
			background += p.Score
			count++
		}
	}
	if atChange <= background/float64(count)+1 {
		t.Errorf("LR score at change %g not above mean background %g", atChange, background/float64(count))
	}
}

func TestNoAlarmsOnStationarySequence(t *testing.T) {
	rng := randx.New(5)
	seq := gaussianSeq(rng, 40, 999, 80, 0, 0)
	points, err := Run(histCfg(), seq)
	if err != nil {
		t.Fatal(err)
	}
	alarms := Alarms(points)
	if len(alarms) > 1 {
		t.Errorf("stationary sequence raised %d alarms: %v", len(alarms), alarms)
	}
}

func TestKappaNaNUntilPreviousIntervalExists(t *testing.T) {
	rng := randx.New(6)
	seq := gaussianSeq(rng, 20, 999, 50, 0, 0)
	points, err := Run(histCfg(), seq)
	if err != nil {
		t.Fatal(err)
	}
	// First inspection times τ..τ+τ′−1 have no t−τ′ interval.
	for _, p := range points {
		if p.T < 10 {
			if !math.IsNaN(p.Kappa) {
				t.Errorf("T=%d: kappa should be NaN, got %g", p.T, p.Kappa)
			}
			if p.Alarm {
				t.Errorf("T=%d: alarm without previous interval", p.T)
			}
		} else {
			if math.IsNaN(p.Kappa) {
				t.Errorf("T=%d: kappa should be defined", p.T)
			}
		}
	}
}

// pointsEqual compares Points treating NaN kappas as equal.
func pointsEqual(a, b Point) bool {
	if a.T != b.T || a.Score != b.Score || a.Interval != b.Interval || a.Alarm != b.Alarm {
		return false
	}
	if math.IsNaN(a.Kappa) != math.IsNaN(b.Kappa) {
		return false
	}
	return math.IsNaN(a.Kappa) || a.Kappa == b.Kappa
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	seq := gaussianSeq(randx.New(7), 25, 12, 60, 0, 4)
	a, err := Run(histCfg(), seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(histCfg(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if !pointsEqual(a[i], b[i]) {
			t.Fatalf("point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestStreamingMatchesBatch(t *testing.T) {
	seq := gaussianSeq(randx.New(8), 25, 12, 60, 0, 4)
	batch, err := Run(histCfg(), seq)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(histCfg())
	if err != nil {
		t.Fatal(err)
	}
	var stream []Point
	for _, b := range seq {
		p, err := d.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			stream = append(stream, *p)
		}
	}
	if len(batch) != len(stream) {
		t.Fatalf("batch %d points, stream %d", len(batch), len(stream))
	}
	for i := range batch {
		if !pointsEqual(batch[i], stream[i]) {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestEmptyBagPropagatesError(t *testing.T) {
	d, err := New(histCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Push(bag.Bag{T: 0}); err == nil {
		t.Fatal("expected error for empty bag")
	}
}

func TestDiscountedWeightingRuns(t *testing.T) {
	cfg := histCfg()
	cfg.Weighting = WeightDiscounted
	seq := gaussianSeq(randx.New(9), 25, 12, 60, 0, 5)
	points, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	var atChange, bg float64
	n := 0
	for _, p := range points {
		if p.T == 12 {
			atChange = p.Score
		} else if p.T < 9 || p.T > 15 {
			bg += p.Score
			n++
		}
	}
	if atChange <= bg/float64(n) {
		t.Errorf("discounted weighting: score at change %g below background %g", atChange, bg/float64(n))
	}
}

func TestRawMassMode(t *testing.T) {
	cfg := histCfg()
	cfg.RawMass = true
	seq := gaussianSeq(randx.New(10), 22, 11, 60, 0, 5)
	points, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		if math.IsNaN(p.Score) || math.IsInf(p.Score, 0) {
			t.Fatalf("raw-mass score is %g", p.Score)
		}
	}
}

func TestKMeansBuilderWith2DBags(t *testing.T) {
	rng := randx.New(11)
	seq := make(bag.Sequence, 20)
	for t2 := 0; t2 < 20; t2++ {
		mu := 0.0
		if t2 >= 10 {
			mu = 5
		}
		pts := make([][]float64, 60)
		for i := range pts {
			pts[i] = []float64{rng.Normal(mu, 1), rng.Normal(-mu, 1)}
		}
		seq[t2] = bag.New(t2, pts)
	}
	cfg := Config{
		Tau:       5,
		TauPrime:  5,
		Builder:   signature.NewKMeansBuilder(4, cluster.Config{}, rng.Split(1)),
		Bootstrap: bootstrap.Config{Replicates: 200},
		Seed:      2,
	}
	points, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	var atChange, maxElsewhere float64
	for _, p := range points {
		if p.T == 10 {
			atChange = p.Score
		} else if p.T < 7 || p.T > 13 {
			if p.Score > maxElsewhere {
				maxElsewhere = p.Score
			}
		}
	}
	if atChange <= maxElsewhere {
		t.Errorf("2-D k-means: score at change %g not above background %g", atChange, maxElsewhere)
	}
}

func TestAlarmsAndScoresHelpers(t *testing.T) {
	points := []Point{
		{T: 5, Score: 1, Alarm: false},
		{T: 6, Score: 2, Alarm: true},
		{T: 7, Score: 3, Alarm: true},
	}
	a := Alarms(points)
	if len(a) != 2 || a[0] != 6 || a[1] != 7 {
		t.Errorf("Alarms = %v", a)
	}
	s := Scores(points)
	if s[0] != 1 || s[2] != 3 {
		t.Errorf("Scores = %v", s)
	}
}

func TestPairwiseEMD(t *testing.T) {
	rng := randx.New(12)
	seq := gaussianSeq(rng, 8, 4, 50, 0, 6)
	m, err := pairwiseRows(signature.HistogramFactory(-10, 10, 40), seq, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 8 {
		t.Fatalf("matrix size %d", len(m))
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("diagonal m[%d][%d] = %g", i, i, m[i][i])
		}
		for j := range m {
			if math.Abs(m[i][j]-m[j][i]) > 1e-12 {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Cross-regime distances must exceed within-regime distances.
	within := (m[0][1] + m[1][2] + m[5][6] + m[6][7]) / 4
	across := (m[0][5] + m[1][6] + m[2][7]) / 3
	if across <= within {
		t.Errorf("across %g <= within %g", across, within)
	}
}

func TestWindowSlideKeepsMatrixConsistent(t *testing.T) {
	// After many pushes, the rolling logD must equal a freshly computed
	// matrix over the same window. We verify indirectly: a detector fed a
	// long stationary prefix then re-fed only the last window's bags must
	// produce the same score (same seed ⇒ same bootstrap draws only if
	// RNG state matches, so compare the deterministic Point estimate).
	seqFull := gaussianSeq(randx.New(13), 30, 999, 50, 0, 0)
	cfg := histCfg()
	cfg.Bootstrap.Replicates = 10
	pointsFull, err := Run(cfg, seqFull)
	if err != nil {
		t.Fatal(err)
	}
	last := pointsFull[len(pointsFull)-1]

	// Re-run on only the final window's bags.
	w := cfg.Tau + cfg.TauPrime
	tail := seqFull[len(seqFull)-w:]
	pointsTail, err := Run(cfg, tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(pointsTail) != 1 {
		t.Fatalf("tail run gave %d points", len(pointsTail))
	}
	if math.Abs(pointsTail[0].Interval.Point-last.Interval.Point) > 1e-12 {
		t.Errorf("rolling window point %g vs fresh %g", last.Interval.Point, pointsTail[0].Interval.Point)
	}
}

func TestAlarmSuppressionOnGradualDrift(t *testing.T) {
	// A slow drift produces elevated scores but wide, overlapping
	// confidence intervals (paper §5.1 dataset 3): alarms must stay rare
	// compared to an abrupt jump of the same total magnitude.
	rng := randx.New(14)
	n, size := 40, 60
	drift := make(bag.Sequence, n)
	for t2 := 0; t2 < n; t2++ {
		mu := 6 * float64(t2) / float64(n) // slow ramp 0→6
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		drift[t2] = bag.FromScalars(t2, vals)
	}
	jump := gaussianSeq(rng, n, n/2, size, 0, 6)

	cfg := histCfg()
	pd, err := Run(cfg, drift)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := Run(cfg, jump)
	if err != nil {
		t.Fatal(err)
	}
	if len(Alarms(pj)) == 0 {
		t.Error("abrupt jump raised no alarm")
	}
	if len(Alarms(pd)) > len(Alarms(pj))+1 {
		t.Errorf("gradual drift raised %d alarms vs jump %d", len(Alarms(pd)), len(Alarms(pj)))
	}
}

func TestPairwiseEMDParallelDeterminism(t *testing.T) {
	// The concurrent matrix fill must produce identical results across
	// runs (distinct cells per job; no ordering effects).
	rng := randx.New(31)
	seq := gaussianSeq(rng, 16, 8, 60, 0, 5)
	factory := signature.HistogramFactory(-10, 10, 30)
	a, err := pairwiseRows(factory, seq, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pairwiseRows(factory, seq, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("nondeterministic cell (%d,%d): %g vs %g", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestPairwiseEMDPropagatesGroundError(t *testing.T) {
	rng := randx.New(32)
	seq := gaussianSeq(rng, 6, 3, 20, 0, 1)
	bad := func(a, b []float64) float64 { return math.NaN() }
	if _, err := pairwiseRows(signature.HistogramFactory(-10, 10, 30), seq, bad, false); err == nil {
		t.Fatal("NaN ground distance must surface as an error")
	}
}

func TestPairwiseEMDEmptyBagError(t *testing.T) {
	seq := bag.Sequence{bag.FromScalars(0, []float64{1}), {}}
	if _, err := pairwiseRows(signature.HistogramFactory(-10, 10, 30), seq, nil, false); err == nil {
		t.Fatal("empty bag must surface as an error")
	}
}

func TestLogFloorConfig(t *testing.T) {
	// With a huge floor, all log-distances collapse to the same constant
	// and every score becomes ~0: the floor is genuinely wired through.
	rng := randx.New(33)
	seq := gaussianSeq(rng, 16, 8, 50, 0, 8)
	cfg := histCfg()
	cfg.LogFloor = 1e9
	points, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if math.Abs(p.Score) > 1e-9 {
			t.Fatalf("score %g with saturating floor, want 0", p.Score)
		}
	}
}
