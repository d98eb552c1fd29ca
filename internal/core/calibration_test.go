package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/randx"
	"repro/internal/signature"
)

// Stationary workload of TestStationaryFalseAlarmRate: with τ=τ′=5 each
// stream has calBags−2·5+1−5 = 136 comparable points (κ_t defined).
const calStreams, calBags = 60, 150

// stationaryAlarms runs calStreams stationary N(0,1) histogram streams
// of calBags bags each through an engine scoring with statistic (τ=τ′=5,
// T=200, α=0.05) and returns the alarm count and the number of
// comparable points.
func stationaryAlarms(t *testing.T, statistic string) (alarms, comparable int) {
	t.Helper()
	eng, err := NewEngine(EngineConfig{
		Template: Config{
			Tau: 5, TauPrime: 5,
			Statistic: statistic,
			Bootstrap: bootstrap.Config{Replicates: 200, Alpha: 0.05},
		},
		Factory: signature.HistogramFactory(-4, 4, 16),
		Seed:    11,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	rngs := make([]*randx.RNG, calStreams)
	for i := range rngs {
		rngs[i] = randx.New(randx.SplitSeed(2024, int64(i)))
	}
	batch := make([]StreamBag, calStreams)
	for step := 0; step < calBags; step++ {
		for i, rng := range rngs {
			vals := make([]float64, 100)
			for j := range vals {
				vals[j] = rng.NormFloat64()
			}
			batch[i] = StreamBag{StreamID: fmt.Sprintf("s%02d", i), Bag: bag.FromScalars(step, vals)}
		}
		res, err := eng.PushBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Point == nil || math.IsNaN(r.Point.Kappa) {
				continue
			}
			comparable++
			if r.Point.Alarm {
				alarms++
			}
		}
	}
	return alarms, comparable
}

// TestStationaryFalseAlarmRate: on data with no change, the κ_t > 0 test
// must not alarm grossly more often than α promises (60·136 comparable
// points per statistic). kl's intervals are conservative (its rate sits
// far below α); lr's are narrower, so it gets 2α. The bounds catch
// miscalibration — a bootstrap stream that repeats or correlates its
// weights shrinks the intervals and floods alarms — not binomial noise.
func TestStationaryFalseAlarmRate(t *testing.T) {
	const alpha = 0.05
	for _, tc := range []struct {
		statistic string
		bound     float64
	}{
		{"kl", alpha},
		{"lr", 2 * alpha},
	} {
		t.Run(tc.statistic, func(t *testing.T) {
			alarms, n := stationaryAlarms(t, tc.statistic)
			if n != calStreams*136 {
				t.Fatalf("%d comparable points, want %d", n, calStreams*136)
			}
			rate := float64(alarms) / float64(n)
			t.Logf("%s: %d alarms in %d comparable points (rate %.4f, bound %.2f)", tc.statistic, alarms, n, rate, tc.bound)
			if rate > tc.bound {
				t.Fatalf("%s false-alarm rate %.4f on stationary data exceeds %.2f", tc.statistic, rate, tc.bound)
			}
		})
	}
}
