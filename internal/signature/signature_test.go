package signature

import (
	"math"
	"testing"

	"repro/internal/bag"
	"repro/internal/cluster"
	"repro/internal/randx"
)

func TestSignatureValidate(t *testing.T) {
	good := Signature{Centers: [][]float64{{1}, {2}}, Weights: []float64{1, 3}}
	if err := good.Validate(); err != nil {
		t.Errorf("good signature rejected: %v", err)
	}
	cases := map[string]Signature{
		"mismatch": {Centers: [][]float64{{1}}, Weights: []float64{1, 2}},
		"empty":    {},
		"ragged":   {Centers: [][]float64{{1}, {1, 2}}, Weights: []float64{1, 1}},
		"negative": {Centers: [][]float64{{1}}, Weights: []float64{-1}},
		"nan":      {Centers: [][]float64{{1}}, Weights: []float64{math.NaN()}},
		"zero":     {Centers: [][]float64{{1}}, Weights: []float64{0}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestNormalized(t *testing.T) {
	s := Signature{Centers: [][]float64{{0}, {1}}, Weights: []float64{1, 3}}
	n := s.Normalized()
	if math.Abs(n.TotalWeight()-1) > 1e-12 {
		t.Errorf("normalized total = %g", n.TotalWeight())
	}
	if math.Abs(n.Weights[1]-0.75) > 1e-12 {
		t.Errorf("normalized weight = %g, want 0.75", n.Weights[1])
	}
	// Original untouched.
	if s.Weights[1] != 3 {
		t.Error("Normalized modified original")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Signature{Centers: [][]float64{{1, 2}}, Weights: []float64{5}}
	c := s.Clone()
	c.Centers[0][0] = 99
	c.Weights[0] = 0
	if s.Centers[0][0] != 1 || s.Weights[0] != 5 {
		t.Error("Clone aliases original")
	}
}

func TestSignatureMean(t *testing.T) {
	s := Signature{Centers: [][]float64{{0, 0}, {4, 8}}, Weights: []float64{1, 3}}
	m := s.Mean()
	if math.Abs(m[0]-3) > 1e-12 || math.Abs(m[1]-6) > 1e-12 {
		t.Errorf("Mean = %v, want [3 6]", m)
	}
	if (Signature{}).Mean() != nil {
		t.Error("empty Mean should be nil")
	}
}

func TestKMeansBuilder(t *testing.T) {
	rng := randx.New(1)
	var pts [][]float64
	for i := 0; i < 100; i++ {
		pts = append(pts, []float64{rng.Normal(0, 0.2), rng.Normal(0, 0.2)})
		pts = append(pts, []float64{rng.Normal(8, 0.2), rng.Normal(8, 0.2)})
	}
	b := bag.New(0, pts)
	kb := NewKMeansBuilder(2, cluster.Config{}, rng)
	s, err := kb.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("signature size %d, want 2", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalWeight() != 200 {
		t.Errorf("total weight %g, want 200", s.TotalWeight())
	}
	// Centers near (0,0) and (8,8).
	for _, c := range s.Centers {
		near0 := math.Hypot(c[0], c[1]) < 1
		near8 := math.Hypot(c[0]-8, c[1]-8) < 1
		if !near0 && !near8 {
			t.Errorf("center %v far from both blobs", c)
		}
	}
}

func TestBuildersRejectEmptyBag(t *testing.T) {
	rng := randx.New(1)
	builders := map[string]Builder{
		"kmeans":   NewKMeansBuilder(2, cluster.Config{}, rng),
		"kmedoids": NewKMedoidsBuilder(2, cluster.Config{}, rng),
		"online":   NewOnlineBuilder(2, 0.5),
		"hist":     NewHistogramBuilder(0, 1, 4),
	}
	for name, b := range builders {
		if _, err := b.Build(bag.Bag{}); err == nil {
			t.Errorf("%s: expected error on empty bag", name)
		}
	}
}

func TestKMedoidsBuilder(t *testing.T) {
	rng := randx.New(2)
	var pts [][]float64
	for i := 0; i < 60; i++ {
		pts = append(pts, []float64{rng.Normal(float64(i%3)*10, 0.1)})
	}
	s, err := NewKMedoidsBuilder(3, cluster.Config{}, rng).Build(bag.New(0, pts))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.TotalWeight() != 60 {
		t.Fatalf("len=%d total=%g", s.Len(), s.TotalWeight())
	}
}

func TestOnlineBuilder(t *testing.T) {
	rng := randx.New(3)
	var pts [][]float64
	for i := 0; i < 500; i++ {
		pts = append(pts, []float64{rng.Normal(float64(i%2)*10, 0.3)})
	}
	s, err := NewOnlineBuilder(2, 0.5).Build(bag.New(0, pts))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.TotalWeight() != 500 {
		t.Fatalf("len=%d total=%g", s.Len(), s.TotalWeight())
	}
}

func TestHistogramBuilder(t *testing.T) {
	hb := NewHistogramBuilder(0, 10, 5)
	b := bag.FromScalars(0, []float64{0.5, 1.5, 1.6, 9.9, -3, 15})
	s, err := hb.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Out-of-range points clamp into end bins: bin0 has 0.5 and -3,
	// bin0 center is 1.0... wait width=2: bin0=[0,2) center 1 holds
	// {0.5, 1.5, 1.6, -3}; bin4=[8,10) center 9 holds {9.9, 15}.
	if s.TotalWeight() != 6 {
		t.Errorf("total weight %g, want 6", s.TotalWeight())
	}
	if s.Len() != 2 {
		t.Fatalf("got %d occupied bins, want 2: %+v", s.Len(), s)
	}
	for i, c := range s.Centers {
		switch c[0] {
		case 1:
			if s.Weights[i] != 4 {
				t.Errorf("bin at 1 weight %g, want 4", s.Weights[i])
			}
		case 9:
			if s.Weights[i] != 2 {
				t.Errorf("bin at 9 weight %g, want 2", s.Weights[i])
			}
		default:
			t.Errorf("unexpected bin center %g", c[0])
		}
	}
}

// TestHistogramBuildAllocs: a histogram signature costs at most four
// allocations — the bin counts, one backing array for the centers, the
// center headers and the weights — however many bins are occupied.
func TestHistogramBuildAllocs(t *testing.T) {
	const bins = 40
	hb := NewHistogramBuilder(0, bins, bins)
	for _, occupied := range []int{1, 8, bins} {
		vals := make([]float64, 50)
		for i := range vals {
			vals[i] = float64(i%occupied) + 0.5
		}
		b := bag.FromScalars(0, vals)
		var s Signature
		allocs := testing.AllocsPerRun(50, func() { s, _ = hb.Build(b) })
		if s.Len() != occupied {
			t.Fatalf("%d occupied bins, want %d", s.Len(), occupied)
		}
		if allocs > 4 {
			t.Errorf("%d occupied bins: %v allocations per Build, want at most 4", occupied, allocs)
		}
	}
}

func TestHistogramBuilderRejectsMultiDim(t *testing.T) {
	hb := NewHistogramBuilder(0, 1, 2)
	if _, err := hb.Build(bag.New(0, [][]float64{{1, 2}})); err == nil {
		t.Error("expected error for 2-D bag")
	}
}

func TestHistogramBuilderPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogramBuilder(0, 1, 0) },
		func() { NewHistogramBuilder(1, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGridBuilder(t *testing.T) {
	gb := NewGridBuilder([]float64{0, 0}, []float64{4, 4}, 2)
	b := bag.New(0, [][]float64{
		{0.5, 0.5}, {1, 1}, // cell (0,0), center (1,1)
		{3, 3},   // cell (1,1), center (3,3)
		{-5, 10}, // clamped to cell (0,1), center (1,3)
	})
	s, err := gb.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.TotalWeight() != 4 {
		t.Fatalf("len=%d total=%g, want 3 and 4", s.Len(), s.TotalWeight())
	}
	weightAt := func(x, y float64) float64 {
		for i, c := range s.Centers {
			if c[0] == x && c[1] == y {
				return s.Weights[i]
			}
		}
		return -1
	}
	if weightAt(1, 1) != 2 {
		t.Errorf("cell (1,1) weight = %g, want 2", weightAt(1, 1))
	}
	if weightAt(3, 3) != 1 {
		t.Errorf("cell (3,3) weight = %g, want 1", weightAt(3, 3))
	}
	if weightAt(1, 3) != 1 {
		t.Errorf("clamped cell (1,3) weight = %g, want 1", weightAt(1, 3))
	}
}

func TestGridBuilderDimensionMismatch(t *testing.T) {
	gb := NewGridBuilder([]float64{0}, []float64{1}, 2)
	if _, err := gb.Build(bag.New(0, [][]float64{{1, 2}})); err == nil {
		t.Error("expected dimension error")
	}
}

func TestBuildSequence(t *testing.T) {
	hb := NewHistogramBuilder(0, 10, 10)
	seq := bag.Sequence{
		bag.FromScalars(0, []float64{1, 2, 3}),
		bag.FromScalars(1, []float64{7, 8}),
	}
	sigs, err := BuildSequence(hb, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 2 {
		t.Fatalf("got %d signatures", len(sigs))
	}
	if sigs[0].TotalWeight() != 3 || sigs[1].TotalWeight() != 2 {
		t.Error("weights do not match bag sizes")
	}
	// Error propagation from an empty bag.
	seq = append(seq, bag.Bag{T: 2})
	if _, err := BuildSequence(hb, seq); err == nil {
		t.Error("expected error for empty bag in sequence")
	}
}

// TestGridBuilderDeterministicOrder is the regression test for the grid
// builder's map-iteration bug: two builds of the same bag must emit the
// cells in the same (first-occupied) order, otherwise every bit-identity
// contract downstream of a grid signature silently breaks.
func TestGridBuilderDeterministicOrder(t *testing.T) {
	rng := randx.New(77)
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = rng.NormalVec(2, 0, 2)
	}
	b := bag.New(0, pts)
	gb := NewGridBuilder([]float64{-6, -6}, []float64{6, 6}, 8)
	ref, err := gb.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 20; run++ {
		s, err := gb.Build(b)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != ref.Len() {
			t.Fatalf("run %d: %d cells vs %d", run, s.Len(), ref.Len())
		}
		for i := range s.Centers {
			if s.Weights[i] != ref.Weights[i] || s.Centers[i][0] != ref.Centers[i][0] || s.Centers[i][1] != ref.Centers[i][1] {
				t.Fatalf("run %d: entry %d differs: (%v, %g) vs (%v, %g)",
					run, i, s.Centers[i], s.Weights[i], ref.Centers[i], ref.Weights[i])
			}
		}
	}
}
