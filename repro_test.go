package repro

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/randx"
)

// TestPublicAPIEndToEnd drives the facade exactly as the README
// quickstart does: build bags, run the detector, check the alarm.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := randx.New(1)
	var seq Sequence
	for ts := 0; ts < 30; ts++ {
		mu := 0.0
		if ts >= 15 {
			mu = 6
		}
		vals := make([]float64, 80)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		seq = append(seq, BagFromScalars(ts, vals))
	}
	points, err := Run(Config{
		Tau:      5,
		TauPrime: 5,
		Builder:  NewHistogramBuilder(-10, 10, 40),
	}, seq)
	if err != nil {
		t.Fatal(err)
	}
	alarms := Alarms(points)
	m := MatchAlarms(alarms, []int{15}, 1, 4)
	if m.Recall() != 1 {
		t.Errorf("change not detected: %v", m)
	}
	if len(Scores(points)) != len(points) {
		t.Error("Scores helper wrong length")
	}
}

func TestPublicBuilders(t *testing.T) {
	b2 := NewBag(0, [][]float64{{1, 2}, {3, 4}, {10, 10}, {11, 11}})
	for name, bld := range map[string]Builder{
		"kmeans":   KMeansFactory(2)(1),
		"kmedoids": KMedoidsFactory(2)(1),
		"online":   NewOnlineBuilder(2, 0.5),
		"grid":     NewGridBuilder([]float64{0, 0}, []float64{12, 12}, 3),
	} {
		s, err := bld.Build(b2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Len() == 0 {
			t.Fatalf("%s: empty signature", name)
		}
	}
}

func TestPublicEMD(t *testing.T) {
	s := Signature{Centers: [][]float64{{0, 0}}, Weights: []float64{1}}
	u := Signature{Centers: [][]float64{{3, 4}}, Weights: []float64{1}}
	for _, tc := range []struct {
		g    Ground
		want float64
	}{
		{nil, 5}, {Euclidean, 5}, {Manhattan, 7}, {Chebyshev, 4},
	} {
		got, err := EMD(s, u, tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("EMD = %g, want %g", got, tc.want)
		}
	}
}

func TestPublicStreamingDetector(t *testing.T) {
	det, err := NewDetector(Config{
		Tau: 3, TauPrime: 3,
		Statistic: "lr",
		Weighting: WeightDiscounted,
		Builder:   NewHistogramBuilder(-5, 15, 20),
		Bootstrap: BootstrapConfig{Replicates: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(2)
	var got []Point
	for ts := 0; ts < 16; ts++ {
		mu := 0.0
		if ts >= 8 {
			mu = 8
		}
		vals := make([]float64, 50)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		p, err := det.Push(BagFromScalars(ts, vals))
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			got = append(got, *p)
		}
	}
	if len(got) == 0 {
		t.Fatal("no points produced")
	}
	// The score at the change must dominate.
	best, bestT := math.Inf(-1), -1
	for _, p := range got {
		if p.Score > best {
			best, bestT = p.Score, p.T
		}
	}
	if bestT != 8 {
		t.Errorf("peak score at T=%d, want 8", bestT)
	}
}

func TestPublicPairwiseEMDAndMDS(t *testing.T) {
	rng := randx.New(3)
	var seq Sequence
	for ts := 0; ts < 10; ts++ {
		mu := 0.0
		if ts >= 5 {
			mu = 10
		}
		vals := make([]float64, 40)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		seq = append(seq, BagFromScalars(ts, vals))
	}
	m, err := PairwiseEMDTiled(seq, WithPairBuilderFactory(HistogramFactory(-5, 15, 40), 0))
	if err != nil {
		t.Fatal(err)
	}
	coords, vals, err := MDSEmbed(m.Rows(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(coords) != 10 || len(vals) != 10 {
		t.Fatal("MDS shapes wrong")
	}
	// The two regimes must separate along the first MDS axis.
	gap := 0.0
	for i := 0; i < 5; i++ {
		gap += coords[i][0] - coords[i+5][0]
	}
	if math.Abs(gap/5) < 1 {
		t.Errorf("MDS did not separate regimes: mean gap %g", gap/5)
	}
}

// TestPublicTiledPairwise exercises the tiled surface the way a
// corpus-scale caller would: full tiled matrix == pair-by-pair EMD
// bit-for-bit, and MDS accepts the Rows() view.
func TestPublicTiledPairwise(t *testing.T) {
	rng := randx.New(3)
	var seq Sequence
	for ts := 0; ts < 12; ts++ {
		mu := 0.0
		if ts >= 6 {
			mu = 10
		}
		vals := make([]float64, 40)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		seq = append(seq, BagFromScalars(ts, vals))
	}
	factory := HistogramFactory(-5, 15, 40)
	sigs := make([]Signature, len(seq))
	for i, b := range seq {
		sig, err := factory(1).Build(b)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig.Normalized()
	}
	m, err := PairwiseEMDTiled(seq,
		WithPairBuilderFactory(factory, 1),
		WithTileSize(4),
		WithPairWorkers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		for j := i + 1; j < len(sigs); j++ {
			d, err := EMD(sigs[i], sigs[j], nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.At(i, j) != d || m.At(j, i) != d {
				t.Fatalf("tiled cells (%d,%d)/(%d,%d) = %g/%g, pairwise EMD = %g", i, j, j, i, m.At(i, j), m.At(j, i), d)
			}
		}
	}
	if _, _, err := MDSEmbed(m.Rows(), 2); err != nil {
		t.Fatalf("MDS over Rows() view: %v", err)
	}
}

func TestIntervalExposed(t *testing.T) {
	iv := Interval{Lo: 1, Up: 2, Point: 1.5}
	if !iv.Contains(1.5) || iv.Width() != 1 {
		t.Error("Interval helpers broken through facade")
	}
}

func TestLearnFeatureWeightsFacade(t *testing.T) {
	rng := randx.New(21)
	changes := []int{12}
	var seq Sequence
	for ts := 0; ts < 24; ts++ {
		mu := 0.0
		if ts >= 12 {
			mu = 3
		}
		pts := make([][]float64, 50)
		for i := range pts {
			pts[i] = []float64{rng.Normal(mu, 1), rng.Normal(0, 5)}
		}
		seq = append(seq, NewBag(ts, pts))
	}
	sel, err := LearnFeatureWeights(seq, changes, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Weights[0] != 1 || sel.Weights[1] >= 0.5 {
		t.Errorf("weights = %v, want dim 0 dominant", sel.Weights)
	}
	// The wrapped builder must be usable in a Config.
	points, err := Run(Config{
		Tau: 4, TauPrime: 4,
		Builder:   sel.Builder(KMeansFactory(4)(1)),
		Bootstrap: BootstrapConfig{Replicates: 80},
	}, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points through weighted builder")
	}
}

func TestWhitenFacade(t *testing.T) {
	rng := randx.New(22)
	var seq Sequence
	for ts := 0; ts < 4; ts++ {
		run := make([]float64, 100)
		for i := 1; i < 100; i++ {
			run[i] = 0.8*run[i-1] + rng.Normal(0, 1)
		}
		seq = append(seq, BagFromScalars(ts, run))
	}
	out, err := Whiten(seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || out[0].Len() != 99 {
		t.Fatalf("whitened shape: %d bags, first has %d points", len(out), out[0].Len())
	}
}

func TestBagAndSignatureJSONRoundTrip(t *testing.T) {
	// Bags and signatures are plain exported structs: they serialize
	// with encoding/json as-is, which the bagcpd CLI and downstream
	// pipelines rely on.
	b := NewBag(3, [][]float64{{1, 2}, {3, 4}})
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back Bag
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.T != 3 || back.Len() != 2 || back.Points[1][1] != 4 {
		t.Fatalf("bag round trip: %+v", back)
	}

	sig, err := KMeansFactory(2)(1).Build(b)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(sig)
	if err != nil {
		t.Fatal(err)
	}
	var sigBack Signature
	if err := json.Unmarshal(data, &sigBack); err != nil {
		t.Fatal(err)
	}
	if err := sigBack.Validate(); err != nil {
		t.Fatalf("signature round trip invalid: %v", err)
	}
	d, err := EMD(sig, sigBack, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Fatalf("round-tripped signature differs: EMD %g", d)
	}
}

func TestSegmentsFacade(t *testing.T) {
	segs := Segments([]int{15, 16}, 30, 5)
	if len(segs) != 2 || segs[0] != (Segment{Start: 0, End: 15}) || segs[1] != (Segment{Start: 15, End: 30}) {
		t.Fatalf("Segments = %v", segs)
	}
}

// TestEngineFacade drives the multi-stream engine exactly as the package
// quick start does: options-built engine, per-stream handles, and the
// batch entry point, with per-stream output matching a standalone
// detector built from the same derived config.
func TestEngineFacade(t *testing.T) {
	newEng := func() *Engine {
		eng, err := NewEngine(
			WithTau(3), WithTauPrime(3),
			WithBuilderFactory(HistogramFactory(-10, 10, 30)),
			WithBootstrap(BootstrapConfig{Replicates: 150}),
			WithSeed(21),
			WithWorkers(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	mkBag := func(id string, ts int) Bag {
		rng := randx.New(randx.SplitSeedString(5, id) + int64(ts))
		mu := 0.0
		if ts >= 7 {
			mu = 5
		}
		vals := make([]float64, 50)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		return BagFromScalars(ts, vals)
	}

	ids := []string{"alpha", "beta", "gamma"}
	eng := newEng()
	got := map[string][]*Point{}
	for ts := 0; ts < 14; ts++ {
		batch := make([]StreamBag, len(ids))
		for i, id := range ids {
			batch[i] = StreamBag{StreamID: id, Bag: mkBag(id, ts)}
		}
		results, err := eng.PushBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Point != nil {
				got[r.StreamID] = append(got[r.StreamID], r.Point)
			}
		}
	}
	if eng.Len() != len(ids) {
		t.Fatalf("engine has %d streams, want %d", eng.Len(), len(ids))
	}

	// Standalone detectors from the engine's own per-stream config must
	// reproduce each stream bit-for-bit.
	for _, id := range ids {
		det, err := NewDetector(newEng().StreamConfig(id))
		if err != nil {
			t.Fatal(err)
		}
		var want []*Point
		for ts := 0; ts < 14; ts++ {
			p, err := det.Push(mkBag(id, ts))
			if err != nil {
				t.Fatal(err)
			}
			if p != nil {
				want = append(want, p)
			}
		}
		if len(got[id]) != len(want) {
			t.Fatalf("stream %s: %d points, want %d", id, len(got[id]), len(want))
		}
		for i := range want {
			if got[id][i].T != want[i].T || got[id][i].Score != want[i].Score ||
				got[id][i].Interval != want[i].Interval || got[id][i].Alarm != want[i].Alarm {
				t.Fatalf("stream %s point %d: %+v != %+v", id, i, *got[id][i], *want[i])
			}
		}
		// Every stream saw the mean shift at t=5.
		var alarms []int
		for _, p := range got[id] {
			if p.Alarm {
				alarms = append(alarms, p.T)
			}
		}
		if m := MatchAlarms(alarms, []int{7}, 1, 3); m.Recall() != 1 {
			t.Errorf("stream %s: change not detected: %v", id, m)
		}
	}
}

// TestNewEngineOptionValidation: option mistakes fail at construction.
func TestNewEngineOptionValidation(t *testing.T) {
	if _, err := NewEngine(WithTau(3), WithTauPrime(3)); err == nil {
		t.Error("missing builder factory should fail")
	}
	if _, err := NewEngine(WithBuilderFactory(HistogramFactory(0, 1, 4))); err == nil {
		t.Error("missing tau should fail")
	}
	if _, err := NewEngine(
		WithTau(3), WithTauPrime(1), WithStatistic("lr"),
		WithBuilderFactory(HistogramFactory(0, 1, 4)),
	); err == nil {
		t.Error("lr with TauPrime < 2 should fail")
	}
}
