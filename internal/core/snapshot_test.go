package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bag"
	"repro/internal/cluster"
	"repro/internal/randx"
	"repro/internal/signature"
)

// streamBags2D generates a deterministic per-stream 2-D sequence with a
// mean shift halfway through (the multi-dimensional sibling of
// streamBags, for builders that are not 1-D-only).
func streamBags2D(id string, n int) []bag.Bag {
	rng := randx.New(randx.SplitSeedString(2000, id))
	out := make([]bag.Bag, n)
	for ts := range out {
		mu := 0.0
		if ts >= n/2 {
			mu = 3
		}
		pts := make([][]float64, 40)
		for i := range pts {
			pts[i] = []float64{rng.Normal(mu, 1), rng.Normal(-mu, 1.5)}
		}
		out[ts] = bag.Bag{T: ts, Points: pts}
	}
	return out
}

// snapshotFactories is every builder factory the engine supports, with a
// matching bag generator (the histogram builder is 1-D-only).
func snapshotFactories() map[string]struct {
	factory signature.BuilderFactory
	bags    func(id string, n int) []bag.Bag
} {
	return map[string]struct {
		factory signature.BuilderFactory
		bags    func(id string, n int) []bag.Bag
	}{
		"kmeans":    {signature.KMeansFactory(4, cluster.Config{MaxIters: 20}), streamBags2D},
		"kmedoids":  {signature.KMedoidsFactory(4, cluster.Config{MaxIters: 20}), streamBags2D},
		"histogram": {signature.HistogramFactory(-6, 9, 24), streamBags},
		"grid":      {signature.GridFactory([]float64{-7, -9}, []float64{9, 7}, 8), streamBags2D},
		"online":    {signature.OnlineFactory(5, 0.3), streamBags2D},
	}
}

// TestEngineSnapshotRestoreBitIdentical is the snapshot contract: for
// every builder factory and worker count, Snapshot → (JSON round-trip) →
// Restore → push k more bags is bit-identical to the uninterrupted run —
// scores, intervals, kappas and alarms all exactly equal.
func TestEngineSnapshotRestoreBitIdentical(t *testing.T) {
	ids := []string{"s-0", "s-1", "s-2"}
	const steps, cut = 14, 8 // snapshot mid-stream, after windows are full

	for fname, fc := range snapshotFactories() {
		t.Run(fname, func(t *testing.T) {
			bags := make(map[string][]bag.Bag, len(ids))
			for _, id := range ids {
				bags[id] = fc.bags(id, steps)
			}
			batchAt := func(step int) []StreamBag {
				var batch []StreamBag
				for _, id := range ids {
					batch = append(batch, StreamBag{StreamID: id, Bag: bags[id][step]})
				}
				return batch
			}

			// Uninterrupted reference run.
			ref := newTestEngine(t, fc.factory, 2)
			refTail := make(map[string][]*Point)
			for step := 0; step < steps; step++ {
				results, err := ref.PushBatch(batchAt(step))
				if err != nil {
					t.Fatal(err)
				}
				if step >= cut {
					for _, res := range results {
						refTail[res.StreamID] = append(refTail[res.StreamID], res.Point)
					}
				}
			}

			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				label := fmt.Sprintf("workers=%d", workers)
				engA := newTestEngine(t, fc.factory, workers)
				for step := 0; step < cut; step++ {
					if _, err := engA.PushBatch(batchAt(step)); err != nil {
						t.Fatal(err)
					}
				}
				snap, err := engA.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				// The envelope must survive serialization bit-for-bit; ship
				// it through JSON like the HTTP server does.
				blob, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				var wire EngineSnapshot
				if err := json.Unmarshal(blob, &wire); err != nil {
					t.Fatal(err)
				}

				engB := newTestEngine(t, fc.factory, workers)
				if err := engB.Restore(&wire); err != nil {
					t.Fatal(err)
				}
				if engB.Len() != len(ids) {
					t.Fatalf("%s: restored engine has %d streams, want %d", label, engB.Len(), len(ids))
				}
				got := make(map[string][]*Point)
				for step := cut; step < steps; step++ {
					results, err := engB.PushBatch(batchAt(step))
					if err != nil {
						t.Fatal(err)
					}
					for _, res := range results {
						got[res.StreamID] = append(got[res.StreamID], res.Point)
					}
				}
				for _, id := range ids {
					comparePointSeries(t, fmt.Sprintf("%s %s stream=%s", fname, label, id), got[id], refTail[id])
				}

				// The donor engine was not perturbed by being snapshotted:
				// it finishes the run bit-identically too.
				gotA := make(map[string][]*Point)
				for step := cut; step < steps; step++ {
					results, err := engA.PushBatch(batchAt(step))
					if err != nil {
						t.Fatal(err)
					}
					for _, res := range results {
						gotA[res.StreamID] = append(gotA[res.StreamID], res.Point)
					}
				}
				for _, id := range ids {
					comparePointSeries(t, fmt.Sprintf("%s %s donor stream=%s", fname, label, id), gotA[id], refTail[id])
				}
			}
		})
	}
}

// TestEngineSnapshotEarly: snapshots taken while windows are still
// filling (and before any interval history exists) restore correctly.
func TestEngineSnapshotEarly(t *testing.T) {
	factory := signature.HistogramFactory(-6, 9, 24)
	const steps = 9
	for _, cut := range []int{0, 1, 3} { // window is τ+τ′ = 6
		engA := newTestEngine(t, factory, 1)
		ref := newTestEngine(t, factory, 1)
		bags := streamBags("early", steps)
		var refTail []*Point
		for step := 0; step < steps; step++ {
			results, err := ref.PushBatch([]StreamBag{{StreamID: "early", Bag: bags[step]}})
			if err != nil {
				t.Fatal(err)
			}
			if step >= cut {
				refTail = append(refTail, results[0].Point)
			}
		}
		for step := 0; step < cut; step++ {
			if _, err := engA.PushBatch([]StreamBag{{StreamID: "early", Bag: bags[step]}}); err != nil {
				t.Fatal(err)
			}
		}
		if cut > 0 { // cut=0 snapshots an engine with no open streams
			if _, err := engA.Open("early"); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := engA.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		engB := newTestEngine(t, factory, 1)
		if err := engB.Restore(snap); err != nil {
			t.Fatal(err)
		}
		var got []*Point
		for step := cut; step < steps; step++ {
			results, err := engB.PushBatch([]StreamBag{{StreamID: "early", Bag: bags[step]}})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, results[0].Point)
		}
		comparePointSeries(t, fmt.Sprintf("cut=%d", cut), got, refTail)
	}
}

func TestEngineRestoreValidation(t *testing.T) {
	factory := signature.HistogramFactory(-6, 9, 24)
	eng := newTestEngine(t, factory, 1)
	bags := streamBags("v", 8)
	for _, b := range bags {
		if _, err := eng.PushBatch([]StreamBag{{StreamID: "v", Bag: b}}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("version", func(t *testing.T) {
		bad := *snap
		bad.Version = 99
		if err := newTestEngine(t, factory, 1).Restore(&bad); err == nil {
			t.Fatal("expected version error")
		}
	})
	t.Run("fingerprint", func(t *testing.T) {
		bad := *snap
		bad.Tau++
		if err := newTestEngine(t, factory, 1).Restore(&bad); err == nil {
			t.Fatal("expected fingerprint error")
		}
		bad = *snap
		bad.Seed++
		if err := newTestEngine(t, factory, 1).Restore(&bad); err == nil {
			t.Fatal("expected seed mismatch error")
		}
		bad = *snap
		bad.BuilderTag = "hist(lo=-99,hi=99,bins=2)"
		if err := newTestEngine(t, factory, 1).Restore(&bad); err == nil {
			t.Fatal("expected builder tag mismatch error")
		}
	})
	t.Run("v3-envelope-refused", func(t *testing.T) {
		// A v3 envelope — Version 3, integer "score" fingerprint field,
		// no "statistic" — must be refused loudly by version, not limp
		// through with a zero-valued statistic name.
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var wire map[string]json.RawMessage
		if err := json.Unmarshal(blob, &wire); err != nil {
			t.Fatal(err)
		}
		wire["version"] = json.RawMessage("3")
		delete(wire, "statistic")
		wire["score"] = json.RawMessage("0")
		legacy, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var old EngineSnapshot
		if err := json.Unmarshal(legacy, &old); err != nil {
			t.Fatal(err)
		}
		err = newTestEngine(t, factory, 1).Restore(&old)
		if err == nil {
			t.Fatal("v3 envelope accepted")
		}
		if want := fmt.Sprintf("snapshot version 3, this engine reads version %d", SnapshotVersion); !strings.Contains(err.Error(), want) {
			t.Fatalf("v3 refusal error %q does not name the versions (%q)", err, want)
		}
	})
	// refusedByVersion relabels the fixture as a version-v envelope and
	// requires ValidateSnapshot, Restore and RestoreStreams alike to
	// refuse it with an error naming both versions, leaving no stream
	// open, even though every remaining fingerprint field still matches.
	refusedByVersion := func(t *testing.T, v int) {
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var wire map[string]json.RawMessage
		if err := json.Unmarshal(blob, &wire); err != nil {
			t.Fatal(err)
		}
		wire["version"] = json.RawMessage(fmt.Sprint(v))
		legacy, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var old EngineSnapshot
		if err := json.Unmarshal(legacy, &old); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("snapshot version %d, this engine reads version %d", v, SnapshotVersion)
		target := newTestEngine(t, factory, 1)
		for name, apply := range map[string]func(*EngineSnapshot) error{
			"ValidateSnapshot": target.ValidateSnapshot,
			"Restore":          target.Restore,
			"RestoreStreams":   target.RestoreStreams,
		} {
			err := apply(&old)
			if err == nil {
				t.Fatalf("%s accepted a v%d envelope", name, v)
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: v%d refusal error %q does not name the versions (%q)", name, v, err, want)
			}
		}
		if n := target.Len(); n != 0 {
			t.Fatalf("refused v%d envelope left %d streams open", v, n)
		}
	}
	t.Run("v4-envelope-refused", func(t *testing.T) {
		// A v4 envelope may carry scores from the retired full-refill
		// simplex (every stream whose signatures were below the old
		// 128-center threshold).
		refusedByVersion(t, 4)
	})
	t.Run("v5-envelope-refused", func(t *testing.T) {
		// A v5 envelope's RNG positions name stdlib streams, which no
		// checkpointed RNG runs on any more.
		refusedByVersion(t, 5)
	})
	t.Run("statistic-mismatch", func(t *testing.T) {
		// Same schema version, different statistic name: the fingerprint
		// check must refuse (an lr score history is meaningless to a kl
		// engine even though every other knob agrees).
		bad := *snap
		bad.Statistic = "lr"
		if err := newTestEngine(t, factory, 1).Restore(&bad); err == nil {
			t.Fatal("expected statistic-name mismatch error")
		}
	})
	t.Run("open-streams", func(t *testing.T) {
		target := newTestEngine(t, factory, 1)
		if _, err := target.Open("occupied"); err != nil {
			t.Fatal(err)
		}
		if err := target.Restore(snap); err == nil {
			t.Fatal("expected open-streams error")
		}
		target.CloseAll()
		if err := target.Restore(snap); err != nil {
			t.Fatalf("restore after CloseAll: %v", err)
		}
	})
	t.Run("builder-statefulness-mismatch", func(t *testing.T) {
		bad := *snap
		bad.Streams = append([]StreamSnapshot(nil), snap.Streams...)
		st := randx.State{S: [4]uint64{1, 2, 3, 4}}
		bad.Streams[0].Detector.BuilderRNG = &st
		target := newTestEngine(t, factory, 1)
		if err := target.Restore(&bad); err == nil {
			t.Fatal("expected builder mismatch error for RNG state on a stateless builder")
		}
	})
	t.Run("corrupt-matrix", func(t *testing.T) {
		bad := *snap
		bad.Streams = append([]StreamSnapshot(nil), snap.Streams...)
		det := bad.Streams[0].Detector
		det.LogD = det.LogD[:len(det.LogD)-1]
		bad.Streams[0].Detector = det
		target := newTestEngine(t, factory, 1)
		if err := target.Restore(&bad); err == nil {
			t.Fatal("expected matrix shape error")
		}
	})
	t.Run("malformed-log-d", func(t *testing.T) {
		// A fingerprint-clean envelope whose stream state RestoreSnapshot
		// would refuse must already be refused by ValidateSnapshot: a
		// server validates before it tears its live streams down.
		bad := *snap
		bad.Streams = append([]StreamSnapshot(nil), snap.Streams...)
		det := bad.Streams[0].Detector
		det.LogD = append([][]float64(nil), det.LogD...)
		last := len(det.LogD) - 1
		det.LogD[last] = det.LogD[last][:len(det.LogD[last])-1]
		bad.Streams[0].Detector = det
		target := newTestEngine(t, factory, 1)
		if err := target.ValidateSnapshot(&bad); err == nil || !strings.Contains(err.Error(), "log-distance row") {
			t.Fatalf("expected ValidateSnapshot to refuse a short log-distance row, got %v", err)
		}
		if err := target.Restore(&bad); err == nil {
			t.Fatal("Restore accepted a short log-distance row")
		}
		if n := target.Len(); n != 0 {
			t.Fatalf("refused restore left %d streams open", n)
		}
		// The builder-RNG presence check runs against the engine's
		// factory: a stateless envelope is refused by a k-means engine.
		km := newTestEngine(t, signature.KMeansFactory(3, cluster.Config{MaxIters: 10}), 1)
		if err := km.ValidateSnapshot(snap); err == nil || !strings.Contains(err.Error(), "lacks builder RNG state") {
			t.Fatalf("expected ValidateSnapshot to refuse a missing builder RNG, got %v", err)
		}
	})
	// Both refusals below were found by FuzzRestoreSnapshot: each input
	// restored "successfully" but a Snapshot of the result differed from
	// the envelope (one stream instead of two, one interval instead of
	// two), i.e. Restore silently dropped state.
	t.Run("duplicate-stream", func(t *testing.T) {
		bad := *snap
		bad.Streams = []StreamSnapshot{snap.Streams[0], snap.Streams[0]}
		target := newTestEngine(t, factory, 1)
		if err := target.ValidateSnapshot(&bad); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("expected ValidateSnapshot to refuse a duplicate stream, got %v", err)
		}
		if err := target.Restore(&bad); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("expected duplicate-stream refusal, got %v", err)
		}
	})
	t.Run("history-order", func(t *testing.T) {
		bad := *snap
		bad.Streams = append([]StreamSnapshot(nil), snap.Streams...)
		det := bad.Streams[0].Detector
		if len(det.History) == 0 {
			t.Fatal("fixture has no interval history")
		}
		det.History = append([]IntervalState{det.History[0]}, det.History...)
		bad.Streams[0].Detector = det
		if err := newTestEngine(t, factory, 1).Restore(&bad); err == nil || !strings.Contains(err.Error(), "strictly increase") {
			t.Fatalf("expected history-order refusal, got %v", err)
		}
	})
	// An all-zero xoshiro state is a fixed point that would emit zeros
	// forever. ValidateSnapshot refuses it, so a merge leaves a live
	// stream untouched and a full restore opens nothing.
	refusedZeroRNG := func(t *testing.T, factory signature.BuilderFactory, bags []bag.Bag, zero func(*DetectorState)) {
		src := newTestEngine(t, factory, 1)
		for _, b := range bags {
			if _, err := src.PushBatch([]StreamBag{{StreamID: "z", Bag: b}}); err != nil {
				t.Fatal(err)
			}
		}
		live, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		bad, err := src.SnapshotStreams("z")
		if err != nil {
			t.Fatal(err)
		}
		bad.Streams[0].ID = "fresh"
		zero(&bad.Streams[0].Detector)
		if err := src.RestoreStreams(bad); err == nil || !strings.Contains(err.Error(), "all-zero") {
			t.Fatalf("expected all-zero RNG refusal on merge, got %v", err)
		}
		after, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonicalEnvelope(t, live), canonicalEnvelope(t, after)) {
			t.Fatal("a refused merge changed the engine's streams")
		}
		bad.Partial = false
		target := newTestEngine(t, factory, 1)
		if err := target.Restore(bad); err == nil || !strings.Contains(err.Error(), "all-zero") {
			t.Fatalf("expected all-zero RNG refusal on restore, got %v", err)
		}
		if n := target.Len(); n != 0 {
			t.Fatalf("refused restore left %d streams open", n)
		}
	}
	t.Run("all-zero-shard-state", func(t *testing.T) {
		refusedZeroRNG(t, factory, streamBags("z", 8), func(d *DetectorState) {
			if len(d.Bootstrap.Shards) == 0 {
				t.Fatal("fixture has no bootstrap shard")
			}
			d.Bootstrap.Shards[0] = randx.State{}
		})
	})
	t.Run("all-zero-builder-state", func(t *testing.T) {
		kmeans := signature.KMeansFactory(3, cluster.Config{MaxIters: 10})
		refusedZeroRNG(t, kmeans, streamBags2D("z", 8), func(d *DetectorState) {
			d.BuilderRNG = &randx.State{}
		})
	})
}

// TestDetectorSnapshotStdBuilderErrors: a k-means builder built by hand
// on a stdlib RNG has no exportable position, so Snapshot must fail
// loudly instead of writing an envelope that cannot resume bit-identically.
func TestDetectorSnapshotStdBuilderErrors(t *testing.T) {
	cfg := engineTemplate()
	cfg.Builder = signature.NewKMeansBuilder(3, cluster.Config{MaxIters: 10}, randx.New(1))
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Snapshot(); err == nil || !strings.Contains(err.Error(), "builder RNG") {
		t.Fatalf("expected a builder RNG snapshot error, got %v", err)
	}
}

// TestEngineShutdown: Shutdown closes every stream into the pool, is
// idempotent, and every entry point refuses work afterwards.
func TestEngineShutdown(t *testing.T) {
	factory := signature.HistogramFactory(-6, 9, 24)
	eng := newTestEngine(t, factory, 2)
	bags := streamBags("a", 4)
	for _, id := range []string{"a", "b", "c"} {
		if _, err := eng.PushBatch([]StreamBag{{StreamID: id, Bag: bags[0]}}); err != nil {
			t.Fatal(err)
		}
	}
	stA, ok := eng.Get("a")
	if !ok {
		t.Fatal("stream a should be open")
	}
	if got := eng.Stats(); got.Open != 3 || got.PooledFree != 0 {
		t.Fatalf("stats before shutdown = %+v", got)
	}

	eng.Shutdown()
	eng.Shutdown() // idempotent

	if got := eng.Stats(); got.Open != 0 || got.PooledFree != 3 {
		t.Fatalf("stats after shutdown = %+v, want 0 open / 3 pooled", got)
	}
	if _, err := eng.Open("z"); err == nil {
		t.Fatal("Open after Shutdown should fail")
	}
	if _, err := eng.PushBatch([]StreamBag{{StreamID: "a", Bag: bags[1]}}); err == nil {
		t.Fatal("PushBatch after Shutdown should fail")
	}
	if _, err := stA.Push(bags[1]); err == nil {
		t.Fatal("Push on a shut-down stream should fail")
	}
	if _, err := eng.Snapshot(); err == nil {
		t.Fatal("Snapshot after Shutdown should fail")
	}
}
