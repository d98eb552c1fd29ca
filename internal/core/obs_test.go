package core

import (
	"strings"
	"testing"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/signature"
	"repro/internal/testutil"
)

// TestDetectorPushInstrumentedAllocs pins the instrumentation seam's
// allocation contract: attaching a registry-backed observer must not
// add per-push garbage beyond the uninstrumented bound (time.Now,
// Histogram.Observe, Counter.Add and solver Stats() are all
// allocation-free).
func TestDetectorPushInstrumentedAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d, bags := warmDetector(t)
	d.SetObserver(obs.NewRegistry().PushStageObserver("kl"))
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Push(bags[i%len(bags)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Same bound as TestDetectorPushSteadyStateAllocs: instrumentation
	// must be free of per-push allocations.
	if allocs > 60 {
		t.Errorf("instrumented steady-state Push: %g allocs/op, want <= 60", allocs)
	}
}

// TestDetectorOutputInvariantToObserver: instrumentation is pure
// telemetry — a detector with an observer attached produces
// bit-identical Points to one without.
func TestDetectorOutputInvariantToObserver(t *testing.T) {
	run := func(instrument bool) []Point {
		rng := randx.New(3)
		d, err := New(Config{
			Tau: 4, TauPrime: 4,
			Builder:   signature.NewHistogramBuilder(-6, 6, 24),
			Bootstrap: bootstrap.Config{Replicates: 300},
			Seed:      5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			d.SetObserver(obs.NewRegistry().PushStageObserver("kl"))
		}
		var out []Point
		for ts := 0; ts < 16; ts++ {
			mu := 0.0
			if ts >= 8 {
				mu = 2.5
			}
			vals := make([]float64, 60)
			for i := range vals {
				vals[i] = rng.Normal(mu, 1)
			}
			p, err := d.Push(bag.FromScalars(ts, vals))
			if err != nil {
				t.Fatal(err)
			}
			if p != nil {
				out = append(out, *p)
			}
		}
		return out
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("instrumented run: %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if !pointsEqual(got[i], want[i]) {
			t.Fatalf("point %d: instrumented %+v != plain %+v", i, got[i], want[i])
		}
	}
}

// TestEngineInstrumentStageMetrics drives an instrumented engine and
// checks the stage histograms and solver counters land on the registry
// with the statistic label, and that Stream.Introspect reports the
// matching cumulative stage state.
func TestEngineInstrumentStageMetrics(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Template: Config{
			Tau: 2, TauPrime: 2,
			Bootstrap: bootstrap.Config{Replicates: 60},
		},
		Factory: signature.HistogramFactory(-6, 6, 16),
		Seed:    41,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	reg := obs.NewRegistry()
	eng.Instrument(reg)

	rng := randx.New(17)
	var batch []StreamBag
	for ts := 0; ts < 6; ts++ {
		vals := make([]float64, 40)
		for i := range vals {
			vals[i] = rng.Normal(0, 1)
		}
		batch = append(batch, StreamBag{StreamID: "s1", Bag: bag.FromScalars(ts, vals)})
	}
	if _, err := eng.PushBatch(batch); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	reg.Render(&b)
	out := b.String()
	for _, want := range []string{
		`bagcpd_push_stage_seconds_count{stage="preprocess",statistic="kl"} 6`,
		`bagcpd_push_stage_seconds_count{stage="signature",statistic="kl"} 6`,
		`bagcpd_push_stage_seconds_count{stage="emd",statistic="kl"} 6`,
		// Window w=4 fills at push 4, so 3 of the 6 pushes inspect.
		`bagcpd_push_stage_seconds_count{stage="bootstrap",statistic="kl"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `bagcpd_push_solver_pivots_total{statistic="kl"}`) {
		t.Errorf("missing solver pivot counter in:\n%s", out)
	}
	if errs := obs.Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Errorf("instrumented engine exposition fails lint: %v", errs)
	}

	st, _ := eng.Get("s1")
	stats, err := st.Introspect()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bags != 6 || stats.WindowFill != 4 || stats.WindowSize != 4 {
		t.Errorf("introspect clock/window = %d/%d/%d, want 6/4/4", stats.Bags, stats.WindowFill, stats.WindowSize)
	}
	if !stats.HasLast || stats.Last.T != 4 {
		t.Errorf("introspect last = %+v (hasLast=%v), want inspection at T=4", stats.Last, stats.HasLast)
	}
	for _, sg := range stats.Stages {
		wantN := uint64(6)
		if sg.Stage == "bootstrap" {
			wantN = 3
		}
		if sg.Count != wantN {
			t.Errorf("stage %s count = %d, want %d", sg.Stage, sg.Count, wantN)
		}
	}

	// A recycled detector keeps the observer but starts fresh stage state.
	st.Close()
	st2, err := eng.Open("s2")
	if err != nil {
		t.Fatal(err)
	}
	stats2, err := st2.Introspect()
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range stats2.Stages {
		if sg.Count != 0 || sg.Seconds != 0 {
			t.Errorf("recycled stream stage %s not reset: %+v", sg.Stage, sg)
		}
	}
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = rng.Normal(0, 1)
	}
	if _, err := st2.Push(bag.FromScalars(0, vals)); err != nil {
		t.Fatal(err)
	}
	stats2, _ = st2.Introspect()
	if stats2.Stages[0].Count != 1 {
		t.Errorf("recycled detector lost the observer: preprocess count = %d, want 1", stats2.Stages[0].Count)
	}
}

// TestStreamIntrospectClosed: Introspect on a closed stream errors
// rather than fabricating zeros.
func TestStreamIntrospectClosed(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Template: Config{Tau: 1, TauPrime: 1, Bootstrap: bootstrap.Config{Replicates: 20}},
		Factory:  signature.HistogramFactory(-4, 4, 8),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	st, err := eng.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := st.Introspect(); err == nil {
		t.Fatal("Introspect on closed stream did not error")
	}
}

// BenchmarkDetectorPushInstrumented is the instrumented twin of
// BenchmarkDetectorPushHistogram: the delta between them is the full
// observability cost (stage clocks + histogram observes + solver stats
// accumulation) on a real push.
func BenchmarkDetectorPushInstrumented(b *testing.B) {
	d, bags := warmDetector(b)
	d.SetObserver(obs.NewRegistry().PushStageObserver("kl"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Push(bags[i%len(bags)]); err != nil {
			b.Fatal(err)
		}
	}
}
