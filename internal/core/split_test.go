package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bag"
	"repro/internal/signature"
)

// TestSnapshotSplitExtractRestoreRoundTrip is the per-stream snapshot
// surgery contract, for every builder factory: the migrating streams
// are captured with SnapshotStreams and carved up with SplitByStream
// (one envelope per stream), the pieces are shipped through JSON and merged
// onto OTHER engines with RestoreStreams, and every stream's remaining
// points are bit-identical to an uninterrupted reference run.
func TestSnapshotSplitExtractRestoreRoundTrip(t *testing.T) {
	ids := []string{"s-0", "s-1", "s-2"}
	const steps, cut = 14, 8

	for fname, fc := range snapshotFactories() {
		t.Run(fname, func(t *testing.T) {
			bags := make(map[string][]bag.Bag, len(ids))
			for _, id := range ids {
				bags[id] = fc.bags(id, steps)
			}
			batchAt := func(eng *Engine, step int, ids ...string) map[string]*Point {
				var batch []StreamBag
				for _, id := range ids {
					batch = append(batch, StreamBag{StreamID: id, Bag: bags[id][step]})
				}
				results, err := eng.PushBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[string]*Point, len(results))
				for _, res := range results {
					got[res.StreamID] = res.Point
				}
				return got
			}

			// Uninterrupted reference run.
			ref := newTestEngine(t, fc.factory, 2)
			refTail := make(map[string][]*Point)
			for step := 0; step < steps; step++ {
				points := batchAt(ref, step, ids...)
				if step >= cut {
					for id, p := range points {
						refTail[id] = append(refTail[id], p)
					}
				}
			}

			// Donor engine: run to the cut, capture the migrating streams
			// and close them here, as the server's extract endpoint does.
			donor := newTestEngine(t, fc.factory, 2)
			for step := 0; step < cut; step++ {
				batchAt(donor, step, ids...)
			}
			moved, err := donor.SnapshotStreams("s-1", "s-2")
			if err != nil {
				t.Fatal(err)
			}
			if !moved.Partial || len(moved.Streams) != 2 {
				t.Fatalf("captured envelope: partial=%v streams=%d", moved.Partial, len(moved.Streams))
			}
			for _, id := range []string{"s-1", "s-2"} {
				st, _ := donor.Get(id)
				st.Close()
			}

			// Ship the envelope through JSON like the HTTP tier does.
			moved = jsonRoundTrip(t, moved)

			// Each stream migrates alone via SplitByStream into engine B,
			// which already holds other live state (stream "resident") —
			// RestoreStreams must not disturb it.
			singles := moved.SplitByStream()
			if len(singles) != 2 {
				t.Fatalf("SplitByStream: %d envelopes, want 2", len(singles))
			}
			for i, env := range singles {
				if len(env.Streams) != 1 || !env.Partial {
					t.Fatalf("split envelope %d: partial=%v streams=%+v", i, env.Partial, streamIDsOf(&env))
				}
			}
			engB := newTestEngine(t, fc.factory, 2)
			if _, err := engB.PushBatch([]StreamBag{{StreamID: "resident", Bag: fc.bags("resident", 1)[0]}}); err != nil {
				t.Fatal(err)
			}
			for i := range singles {
				if err := engB.RestoreStreams(&singles[i]); err != nil {
					t.Fatal(err)
				}
			}
			if _, open := engB.Get("resident"); !open {
				t.Fatal("merge restore closed an unrelated live stream")
			}

			// s-0 stays home: the donor's own engine keeps running it.
			got := make(map[string][]*Point)
			for step := cut; step < steps; step++ {
				for id, p := range batchAt(donor, step, "s-0") {
					got[id] = append(got[id], p)
				}
				for id, p := range batchAt(engB, step, "s-1", "s-2") {
					got[id] = append(got[id], p)
				}
			}
			for _, id := range ids {
				comparePointSeries(t, fmt.Sprintf("%s stream=%s", fname, id), got[id], refTail[id])
			}
		})
	}
}

func streamIDsOf(s *EngineSnapshot) []string {
	ids := make([]string, len(s.Streams))
	for i := range s.Streams {
		ids[i] = s.Streams[i].ID
	}
	return ids
}

func jsonRoundTrip(t *testing.T, s *EngineSnapshot) *EngineSnapshot {
	t.Helper()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out EngineSnapshot
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestSnapshotSplitExtractErrors covers the surgery error paths: unknown
// and duplicate ids in a stream capture, merge conflicts, fingerprint
// mismatch on the receiving engine, and rollback on a failed merge.
func TestSnapshotSplitExtractErrors(t *testing.T) {
	factory := signature.HistogramFactory(-6, 9, 24)
	eng := newTestEngine(t, factory, 1)
	for _, id := range []string{"a", "b", "c"} {
		for _, b := range streamBags(id, 8) {
			if _, err := eng.PushBatch([]StreamBag{{StreamID: id, Bag: b}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("snapshot-streams-unknown", func(t *testing.T) {
		if _, err := eng.SnapshotStreams("a", "ghost"); err == nil {
			t.Fatal("want unknown-stream error")
		}
		if _, err := eng.SnapshotStreams("a", "a"); err == nil {
			t.Fatal("want duplicate-id error")
		}
		part, err := eng.SnapshotStreams("a")
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || len(part.Streams) != 1 || part.Streams[0].ID != "a" {
			t.Fatalf("partial envelope: %+v", streamIDsOf(part))
		}
	})
	t.Run("restore-refuses-partial", func(t *testing.T) {
		part, err := eng.SnapshotStreams("a")
		if err != nil {
			t.Fatal(err)
		}
		target := newTestEngine(t, factory, 1)
		if err := target.Restore(part); err == nil || !strings.Contains(err.Error(), "partial") {
			t.Fatalf("Restore must refuse partial envelopes, got %v", err)
		}
	})
	t.Run("merge-conflict", func(t *testing.T) {
		part, err := eng.SnapshotStreams("a")
		if err != nil {
			t.Fatal(err)
		}
		target := newTestEngine(t, factory, 1)
		if _, err := target.Open("a"); err != nil {
			t.Fatal(err)
		}
		if err := target.RestoreStreams(part); err == nil || !strings.Contains(err.Error(), "already open") {
			t.Fatalf("want already-open conflict, got %v", err)
		}
	})
	t.Run("merge-fingerprint-mismatch", func(t *testing.T) {
		part, err := eng.SnapshotStreams("a")
		if err != nil {
			t.Fatal(err)
		}
		bad := *part
		bad.Tau++
		target := newTestEngine(t, factory, 1)
		if _, err := target.Open("survivor"); err != nil {
			t.Fatal(err)
		}
		if err := target.RestoreStreams(&bad); err == nil {
			t.Fatal("want fingerprint mismatch error")
		}
		if _, open := target.Get("survivor"); !open || target.Len() != 1 {
			t.Fatal("refused merge must leave the receiving engine untouched")
		}
	})
	t.Run("merge-names-stream-twice", func(t *testing.T) {
		part, err := eng.SnapshotStreams("a")
		if err != nil {
			t.Fatal(err)
		}
		bad := *part
		bad.Streams = append(append([]StreamSnapshot(nil), part.Streams...), part.Streams...)
		if err := newTestEngine(t, factory, 1).RestoreStreams(&bad); err == nil {
			t.Fatal("want duplicate-stream error")
		}
	})
	t.Run("merge-rollback-on-failure", func(t *testing.T) {
		part, err := eng.SnapshotStreams("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		bad := jsonRoundTrip(t, part)
		// Corrupt the SECOND stream's matrix so the first opens fine and
		// the failure must roll it back.
		det := bad.Streams[1].Detector
		det.LogD = det.LogD[:len(det.LogD)-1]
		bad.Streams[1].Detector = det
		target := newTestEngine(t, factory, 1)
		if _, err := target.Open("survivor"); err != nil {
			t.Fatal(err)
		}
		if err := target.RestoreStreams(bad); err == nil {
			t.Fatal("want matrix shape error")
		}
		if target.Len() != 1 {
			t.Fatalf("failed merge left %d streams open, want only the survivor", target.Len())
		}
		if _, open := target.Get("survivor"); !open {
			t.Fatal("failed merge closed the pre-existing stream")
		}
	})
}
