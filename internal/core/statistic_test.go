package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/infoest"
	"repro/internal/randx"
	"repro/internal/signature"
)

func TestStatisticRegistryBuiltins(t *testing.T) {
	names := StatisticNames()
	for _, want := range []string{"kl", "lr", "clr"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in statistic %q missing from registry: %v", want, names)
		}
		s, ok := LookupStatistic(want)
		if !ok || s.Name() != want {
			t.Fatalf("LookupStatistic(%q) = %v, %v", want, s, ok)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("StatisticNames not sorted: %v", names)
		}
	}
	if _, ok := LookupStatistic("no-such-statistic"); ok {
		t.Fatal("lookup of unregistered name succeeded")
	}
}

type testStatistic struct{ name string }

func (s testStatistic) Name() string        { return s.name }
func (testStatistic) Validate(Config) error { return nil }
func (testStatistic) Bind(win *infoest.Window) bootstrap.ScoreFunc {
	return func(gRef, gTest []float64) float64 { return infoest.ScoreKL(*win, gRef, gTest) }
}

func TestRegisterStatisticValidation(t *testing.T) {
	if err := RegisterStatistic(testStatistic{name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := RegisterStatistic(testStatistic{name: "has space"}); err == nil {
		t.Fatal("whitespace name accepted")
	}
	if err := RegisterStatistic(testStatistic{name: "has,comma"}); err == nil {
		t.Fatal("comma name accepted")
	}
	if err := RegisterStatistic(testStatistic{name: "kl"}); err == nil {
		t.Fatal("duplicate of built-in accepted")
	}
	if err := RegisterStatistic(testStatistic{name: "test-custom-kl"}); err != nil {
		t.Fatalf("valid registration failed: %v", err)
	}
	if err := RegisterStatistic(testStatistic{name: "test-custom-kl"}); err == nil {
		t.Fatal("duplicate custom registration accepted")
	}
	// A registered custom statistic is a first-class config choice.
	cfg := Config{
		Tau: 3, TauPrime: 3,
		Statistic: "test-custom-kl",
		Builder:   signature.NewHistogramBuilder(-4, 7, 20),
		Bootstrap: bootstrap.Config{Replicates: 50},
		Seed:      1,
	}
	if cfg.StatisticName() != "test-custom-kl" {
		t.Fatalf("StatisticName = %q", cfg.StatisticName())
	}
	if _, err := New(cfg); err != nil {
		t.Fatalf("detector with custom statistic: %v", err)
	}
}

func TestConfigStatisticResolution(t *testing.T) {
	base := Config{Tau: 3, TauPrime: 3, Builder: signature.NewHistogramBuilder(-4, 7, 20)}

	// An empty Statistic is "kl"; a set one resolves to itself.
	if got := base.StatisticName(); got != "kl" {
		t.Fatalf("empty Statistic resolves to %q, want \"kl\"", got)
	}
	cfg := base
	cfg.Statistic = "lr"
	if got := cfg.StatisticName(); got != "lr" {
		t.Fatalf("Statistic=lr resolves to %q", got)
	}

	// Unregistered name lists the registered set.
	cfg = base
	cfg.Statistic = "nope"
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown statistic: err = %v", err)
	}

	// The lr statistic's structural requirement still binds by name.
	cfg = base
	cfg.Statistic = "lr"
	cfg.TauPrime = 1
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "TauPrime >= 2") {
		t.Fatalf("lr with TauPrime=1: err = %v", err)
	}
}

// TestStatisticShimBitIdentity: an empty Statistic is exactly the "kl"
// statistic — a detector left at the default and one naming "kl"
// produce bit-identical Points (same scores, intervals and alarms).
func TestStatisticShimBitIdentity(t *testing.T) {
	seq := goldenSequence()[:40]
	mk := func(name string) []Point {
		pts, err := Run(Config{
			Tau: 4, TauPrime: 4,
			Statistic: name,
			Builder:   signature.NewHistogramBuilder(-4, 7, 40),
			Bootstrap: bootstrap.Config{Replicates: 120, Alpha: 0.05},
			Seed:      77,
		}, seq)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		return pts
	}
	viaDefault, viaName := mk(""), mk("kl")
	if len(viaDefault) != len(viaName) || len(viaDefault) == 0 {
		t.Fatalf("point counts differ (%d vs %d)", len(viaDefault), len(viaName))
	}
	for i := range viaDefault {
		a, b := viaDefault[i], viaName[i]
		sameKappa := a.Kappa == b.Kappa || (math.IsNaN(a.Kappa) && math.IsNaN(b.Kappa))
		if a.T != b.T || a.Score != b.Score || a.Interval != b.Interval || !sameKappa || a.Alarm != b.Alarm {
			t.Fatalf("point %d differs between default and named config:\n  default: %+v\n  kl:      %+v", i, a, b)
		}
	}
}

func TestCLRPreprocessBag(t *testing.T) {
	clr, ok := LookupStatistic("clr")
	if !ok {
		t.Fatal("clr not registered")
	}
	prep := clr.(BagPreprocessor)

	t.Run("maps-to-clr-coordinates", func(t *testing.T) {
		b := bag.New(3, [][]float64{{1, 2, 4}})
		got, err := prep.PreprocessBag(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.T != 3 || got.Len() != 1 {
			t.Fatalf("shape changed: %+v", got)
		}
		// clr components must sum to zero and preserve log ratios.
		sum := 0.0
		for _, v := range got.Points[0] {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("clr components sum to %g, want 0", sum)
		}
		if d := (got.Points[0][1] - got.Points[0][0]) - math.Log(2); math.Abs(d) > 1e-12 {
			t.Fatalf("log-ratio not preserved: %g", d)
		}
	})

	t.Run("scale-invariant", func(t *testing.T) {
		// Raw counts and normalized shares are the same composition.
		counts := bag.New(0, [][]float64{{30, 50, 20}})
		shares := bag.New(0, [][]float64{{0.3, 0.5, 0.2}})
		a, err := prep.PreprocessBag(counts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prep.PreprocessBag(shares)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a.Points[0] {
			if math.Abs(a.Points[0][j]-b.Points[0][j]) > 1e-9 {
				t.Fatalf("not scale-invariant: %v vs %v", a.Points[0], b.Points[0])
			}
		}
	})

	t.Run("zero-floored", func(t *testing.T) {
		if _, err := prep.PreprocessBag(bag.New(0, [][]float64{{0, 1}})); err != nil {
			t.Fatalf("zero component should be floored, got %v", err)
		}
	})
	t.Run("negative-rejected", func(t *testing.T) {
		if _, err := prep.PreprocessBag(bag.New(0, [][]float64{{-0.1, 1.1}})); err == nil {
			t.Fatal("negative component accepted")
		}
	})
	t.Run("dim1-rejected", func(t *testing.T) {
		if _, err := prep.PreprocessBag(bag.New(0, [][]float64{{1}})); err == nil {
			t.Fatal("1-D composition accepted (clr is identically zero there)")
		}
	})
	t.Run("empty-ok", func(t *testing.T) {
		if _, err := prep.PreprocessBag(bag.Bag{T: 1}); err != nil {
			t.Fatalf("empty bag: %v", err)
		}
	})
}

// TestCLRDetectorEndToEnd runs the clr statistic through the full
// detector pipeline on a share-of-total workload: traffic mix over 3
// categories whose composition shifts mid-stream while the TOTAL keeps
// growing — invisible to a scale-sensitive view, loud in CLR
// coordinates. Also pins that the preprocessing actually ran (a raw
// detector sees different signatures) and that the engine fingerprint
// carries the name.
func TestCLRDetectorEndToEnd(t *testing.T) {
	rng := randx.New(4242)
	const n, change = 60, 30
	seq := make(bag.Sequence, n)
	for ts := range seq {
		shares := []float64{0.6, 0.3, 0.1}
		if ts >= change {
			shares = []float64{0.3, 0.6, 0.1}
		}
		total := 1000.0 * (1.0 + 0.05*float64(ts)) // growing total: composition is the only signal
		pts := make([][]float64, 80)
		for i := range pts {
			p := make([]float64, 3)
			for j := range p {
				frac := shares[j] * math.Exp(rng.Normal(0, 0.08))
				p[j] = total * frac
			}
			pts[i] = p
		}
		seq[ts] = bag.New(ts, pts)
	}

	cfg := Config{
		Tau: 5, TauPrime: 5,
		Statistic: "clr",
		Builder:   signature.NewGridBuilder([]float64{-3, -3, -3}, []float64{3, 3, 3}, 12),
		Bootstrap: bootstrap.Config{Replicates: 150, Alpha: 0.05},
		Seed:      9,
	}
	points, err := Run(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	alarmed := false
	for _, p := range points {
		if p.Alarm && p.T >= change-2 && p.T <= change+8 {
			alarmed = true
		}
	}
	if !alarmed {
		t.Fatalf("clr detector raised no alarm near the composition change at t=%d; alarms at %v", change, Alarms(points))
	}

	// Fingerprint: an engine templated on clr stamps the name.
	eng, err := NewEngine(EngineConfig{
		Template: Config{Tau: 5, TauPrime: 5, Statistic: "clr",
			Bootstrap: bootstrap.Config{Replicates: 150, Alpha: 0.05}},
		Factory: signature.GridFactory([]float64{-3, -3, -3}, []float64{3, 3, 3}, 12),
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.StatisticName() != "clr" {
		t.Fatalf("engine StatisticName = %q", eng.StatisticName())
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Statistic != "clr" {
		t.Fatalf("snapshot fingerprint statistic = %q, want clr", snap.Statistic)
	}
}
