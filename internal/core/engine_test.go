package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/emd"
	"repro/internal/randx"
	"repro/internal/signature"
	"repro/internal/testutil"
)

// engineTemplate is the per-stream configuration every engine test uses.
func engineTemplate() Config {
	return Config{
		Tau: 3, TauPrime: 3,
		Bootstrap: bootstrap.Config{Replicates: 200},
	}
}

func newTestEngine(t testing.TB, factory signature.BuilderFactory, workers int) *Engine {
	t.Helper()
	eng, err := NewEngine(EngineConfig{
		Template: engineTemplate(),
		Factory:  factory,
		Seed:     42,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// streamBags generates a deterministic per-stream 1-D sequence with a
// mean shift halfway through; each stream's data differs.
func streamBags(id string, n int) []bag.Bag {
	rng := randx.New(randx.SplitSeedString(1000, id))
	out := make([]bag.Bag, n)
	for ts := range out {
		mu := 0.0
		if ts >= n/2 {
			mu = 3
		}
		vals := make([]float64, 60)
		for i := range vals {
			vals[i] = rng.Normal(mu, 1)
		}
		out[ts] = bag.FromScalars(ts, vals)
	}
	return out
}

// TestEnginePushBatchBitIdentical is the engine's core contract: N
// streams fed through PushBatch — in interleaved batches, for several
// worker counts — produce bit-identical Points to N standalone detectors
// built from StreamConfig, for both a deterministic (histogram) and a
// randomized (k-means) builder factory.
func TestEnginePushBatchBitIdentical(t *testing.T) {
	factories := map[string]signature.BuilderFactory{
		"histogram": signature.HistogramFactory(-6, 9, 24),
		"kmeans":    signature.KMeansFactory(4, cluster.Config{MaxIters: 20}),
	}
	ids := []string{"user-0", "user-1", "user-2", "user-3", "user-4"}
	const steps = 12

	for fname, factory := range factories {
		t.Run(fname, func(t *testing.T) {
			// Standalone reference: one fresh detector per stream.
			ref := make(map[string][]*Point)
			refEng := newTestEngine(t, factory, 1) // only used for StreamConfig
			for _, id := range ids {
				det, err := New(refEng.StreamConfig(id))
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range streamBags(id, steps) {
					p, err := det.Push(b)
					if err != nil {
						t.Fatal(err)
					}
					ref[id] = append(ref[id], p)
				}
			}

			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				eng := newTestEngine(t, factory, workers)
				got := make(map[string][]*Point)
				// Interleave streams step by step so batches mix streams.
				bags := make(map[string][]bag.Bag, len(ids))
				for _, id := range ids {
					bags[id] = streamBags(id, steps)
				}
				for step := 0; step < steps; step++ {
					var batch []StreamBag
					for _, id := range ids {
						batch = append(batch, StreamBag{StreamID: id, Bag: bags[id][step]})
					}
					results, err := eng.PushBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					if len(results) != len(batch) {
						t.Fatalf("got %d results for %d bags", len(results), len(batch))
					}
					for _, res := range results {
						got[res.StreamID] = append(got[res.StreamID], res.Point)
					}
				}
				for _, id := range ids {
					comparePointSeries(t, fmt.Sprintf("workers=%d stream=%s", workers, id), got[id], ref[id])
				}
			}
		})
	}
}

// comparePointSeries compares two aligned []*Point (nil = warm-up).
func comparePointSeries(t *testing.T, label string, got, want []*Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range got {
		if (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("%s: point %d nil mismatch (%v vs %v)", label, i, got[i], want[i])
		}
		if got[i] != nil && !pointsEqual(*got[i], *want[i]) {
			t.Fatalf("%s: point %d %+v != %+v", label, i, *got[i], *want[i])
		}
	}
}

// TestEngineStreamPushMatchesBatch: pushing bag-by-bag through an Open
// handle equals feeding the same bags via PushBatch.
func TestEngineStreamPushMatchesBatch(t *testing.T) {
	factory := signature.HistogramFactory(-6, 9, 24)
	bags := streamBags("solo", 10)

	engA := newTestEngine(t, factory, 2)
	st, err := engA.Open("solo")
	if err != nil {
		t.Fatal(err)
	}
	var viaPush []*Point
	for _, b := range bags {
		p, err := st.Push(b)
		if err != nil {
			t.Fatal(err)
		}
		viaPush = append(viaPush, p)
	}

	engB := newTestEngine(t, factory, 2)
	batch := make([]StreamBag, len(bags))
	for i, b := range bags {
		batch[i] = StreamBag{StreamID: "solo", Bag: b}
	}
	results, err := engB.PushBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	viaBatch := make([]*Point, len(results))
	for i := range results {
		viaBatch[i] = results[i].Point
	}
	comparePointSeries(t, "push-vs-batch", viaPush, viaBatch)
}

// TestEngineOpenIdempotentAndClose: Open twice returns the same handle;
// Close recycles the detector and a reopened stream starts from scratch.
func TestEngineOpenIdempotentAndClose(t *testing.T) {
	eng := newTestEngine(t, signature.HistogramFactory(-6, 9, 24), 1)
	a, err := eng.Open("s")
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Open("s")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Open is not idempotent")
	}
	if eng.Len() != 1 {
		t.Fatalf("Len = %d, want 1", eng.Len())
	}
	a.Close()
	a.Close() // idempotent
	if eng.Len() != 0 {
		t.Fatalf("Len after Close = %d, want 0", eng.Len())
	}
	if _, err := a.Push(streamBags("s", 1)[0]); err == nil {
		t.Fatal("Push on closed stream should error")
	}
	if _, err := eng.Open(""); err == nil {
		t.Fatal("Open(\"\") should error")
	}
}

// TestEngineDetectorRecycling: a detector recycled through the pool
// (open A → push → close → open B) serves stream B bit-identically to a
// fresh engine that only ever ran B — recycling must leave no residue.
func TestEngineDetectorRecycling(t *testing.T) {
	factory := signature.KMeansFactory(4, cluster.Config{MaxIters: 20})
	bagsA := streamBags("a", 9)
	bagsB := streamBags("b", 9)

	run := func(withA bool) []*Point {
		eng := newTestEngine(t, factory, 1)
		if withA {
			stA, err := eng.Open("a")
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bagsA {
				if _, err := stA.Push(b); err != nil {
					t.Fatal(err)
				}
			}
			stA.Close() // detector goes to the pool, warm
		}
		stB, err := eng.Open("b")
		if err != nil {
			t.Fatal(err)
		}
		var out []*Point
		for _, b := range bagsB {
			p, err := stB.Push(b)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return out
	}

	comparePointSeries(t, "recycled-vs-fresh", run(true), run(false))
}

// TestDetectorResetBitIdentical: Reset rewinds a warm detector to its
// initial state — refeeding the same bags reproduces the exact Points of
// the first run (stateless builder, so the builder needs no reset).
func TestDetectorResetBitIdentical(t *testing.T) {
	cfg := Config{
		Tau: 3, TauPrime: 3,
		Builder:   signature.NewHistogramBuilder(-6, 9, 24),
		Bootstrap: bootstrap.Config{Replicates: 200},
		Seed:      5,
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bags := streamBags("reset", 10)
	feed := func() []*Point {
		var out []*Point
		for _, b := range bags {
			p, err := d.Push(b)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return out
	}
	first := feed()
	d.Reset()
	second := feed()
	comparePointSeries(t, "reset", second, first)

	// And a Reset mid-window (before the window ever filled) must too.
	d.Reset()
	if _, err := d.Push(bags[0]); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	comparePointSeries(t, "reset-mid-warmup", feed(), first)
}

// zeroAllocBuilder returns precomputed signatures so AllocsPerRun can
// isolate the detector's own allocations from the signature build.
type zeroAllocBuilder struct {
	sigs []signature.Signature
	i    int
}

func (zb *zeroAllocBuilder) Build(bag.Bag) (signature.Signature, error) {
	s := zb.sigs[zb.i%len(zb.sigs)]
	zb.i++
	return s, nil
}

// TestDetectorResetCycleZeroAllocs: a full Reset + refill + inspect
// cycle on a warm detector must not allocate — the point of pooling
// detectors is that recycling is free.
func TestDetectorResetCycleZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	hb := signature.NewHistogramBuilder(-6, 9, 24)
	bags := streamBags("alloc", 8)
	zb := &zeroAllocBuilder{}
	for _, b := range bags {
		s, err := hb.Build(b)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-normalize and use RawMass so Push takes the signature as-is.
		zb.sigs = append(zb.sigs, s.Normalized())
	}
	d, err := New(Config{
		Tau: 3, TauPrime: 3,
		Builder:   zb,
		RawMass:   true,
		Bootstrap: bootstrap.Config{Replicates: 200},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func() {
		zb.i = 0
		for _, b := range bags {
			if _, err := d.Push(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed() // warm everything once
	if allocs := testing.AllocsPerRun(10, func() {
		d.Reset()
		feed()
	}); allocs > 3 {
		// Each inspection returns one fresh *Point; with 8 bags and a
		// τ+τ′=6 window the cycle inspects at counts 6, 7 and 8, so the
		// three returned Points are the detector's entire steady-state
		// cost. Anything above means Reset leaks buffer reuse.
		t.Errorf("Reset+refill cycle: %g allocs/op, want <= 3 (the returned Points)", allocs)
	}
}

// TestEnginePushBatchPartialError: a failing bag poisons only its own
// stream — its later bags in the batch are skipped with a wrapping
// error, other streams complete, and the batch error is the first
// per-bag error in input order.
func TestEnginePushBatchPartialError(t *testing.T) {
	eng := newTestEngine(t, signature.HistogramFactory(-6, 9, 24), 2)
	good := streamBags("good", 4)
	batch := []StreamBag{
		{StreamID: "good", Bag: good[0]},
		{StreamID: "bad", Bag: bag.Bag{T: 0}}, // empty bag: builder error
		{StreamID: "good", Bag: good[1]},
		{StreamID: "bad", Bag: good[2]}, // would be fine, but follows the failure
	}
	results, err := eng.PushBatch(batch)
	if err == nil {
		t.Fatal("expected batch error")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy stream affected: %+v", results)
	}
	if results[1].Err == nil || results[3].Err == nil {
		t.Fatalf("failing stream errors not recorded: %+v", results)
	}
	if err.Error() != results[1].Err.Error() {
		t.Fatalf("batch error %q is not the first per-bag error %q", err, results[1].Err)
	}
}

// TestNewEngineValidation: option/config errors surface at construction.
func TestNewEngineValidation(t *testing.T) {
	tmpl := engineTemplate()
	cases := map[string]EngineConfig{
		"missing factory": {Template: tmpl},
		"builder set": {
			Template: func() Config { c := tmpl; c.Builder = signature.NewHistogramBuilder(0, 1, 2); return c }(),
			Factory:  signature.HistogramFactory(0, 1, 2),
		},
		"bad tau": {
			Template: func() Config { c := tmpl; c.Tau = 0; return c }(),
			Factory:  signature.HistogramFactory(0, 1, 2),
		},
	}
	for name, cfg := range cases {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// badSigFactory builds single-center signatures that are invalid for
// the bag at time badAt, to force an EMD error inside Pairwise.
func badSigFactory(badAt int) signature.BuilderFactory {
	return func(int64) signature.Builder { return badSigBuilder{badAt} }
}

type badSigBuilder struct{ badAt int }

func (bb badSigBuilder) Build(b bag.Bag) (signature.Signature, error) {
	w := 1.0
	if b.T == bb.badAt {
		w = -1 // invalid: Distance rejects negative weights
	}
	return signature.Signature{Centers: [][]float64{{float64(b.T), 0}}, Weights: []float64{w}}, nil
}

// pairwiseRows is the full pairwise matrix as [][]float64 rows.
func pairwiseRows(f signature.BuilderFactory, seq bag.Sequence, ground emd.Ground, rawMass bool) ([][]float64, error) {
	m, err := Pairwise(seq, WithPairBuilderFactory(f, 0), WithPairGround(ground), WithPairRawMass(rawMass))
	if err != nil {
		return nil, err
	}
	return m.Rows(), nil
}

// TestPairwiseEMDCancelsOnError: after the first failing pair, the
// remaining jobs must be cancelled instead of drained — the ground
// distance should run for far fewer than all n(n−1)/2 pairs.
func TestPairwiseEMDCancelsOnError(t *testing.T) {
	const n = 40
	seq := make(bag.Sequence, n)
	for i := range seq {
		seq[i] = bag.New(i, [][]float64{{float64(i), 1}})
	}
	var groundCalls atomic.Int64
	ground := emd.Ground(func(a, b []float64) float64 {
		groundCalls.Add(1)
		return emd.Euclidean(a, b)
	})
	// RawMass path so the single-center signatures keep weight -1.
	_, err := pairwiseRows(badSigFactory(2), seq, ground, true)
	if err == nil {
		t.Fatal("expected error from invalid signature")
	}
	total := int64(n * (n - 1) / 2)
	if calls := groundCalls.Load(); calls >= total/2 {
		t.Errorf("ground ran %d times; want far fewer than the full %d pairs (cancellation failed)", calls, total)
	}
}
