package bootstrap

import (
	"encoding/json"
	"testing"
)

// stateScore is a cheap deterministic statistic for stream-state tests.
func stateScore(gRef, gTest []float64) float64 {
	s := 0.0
	for i, v := range gRef {
		s += float64(i+1) * v
	}
	for i, v := range gTest {
		s -= float64(i+1) * v
	}
	return s
}

func stateIntervals(t *testing.T, e *Estimator, n int) []Interval {
	t.Helper()
	baseRef := []float64{0.25, 0.25, 0.25, 0.25}
	baseTest := []float64{0.5, 0.25, 0.25}
	cfg := Config{Replicates: 150, Alpha: 0.1}
	out := make([]Interval, n)
	for i := range out {
		iv, err := e.Interval(stateScore, baseRef, baseTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = iv
	}
	return out
}

// TestEstimatorStreamStateRoundTrip: capture mid-run, serialize, restore
// onto a fresh estimator, and require the remaining interval sequence to
// be bit-identical to the uninterrupted one.
func TestEstimatorStreamStateRoundTrip(t *testing.T) {
	ref := NewSeededEstimator(424242)
	stateIntervals(t, ref, 5) // advance mid-stream

	st := ref.StreamState()
	if len(st.Shards) == 0 {
		t.Fatal("expected materialized shards after intervals")
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back StreamState
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	restored := NewSeededEstimator(0) // wrong seed on purpose; RestoreStreams must fix it
	if err := restored.RestoreStreams(back); err != nil {
		t.Fatal(err)
	}
	want := stateIntervals(t, ref, 5)
	got := stateIntervals(t, restored, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d after restore %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestEstimatorRestoreOntoWarm: restoring onto a pooled estimator that
// already ran on a different seed (extra shards materialized) must rewind
// the surplus shards to their initial position too.
func TestEstimatorRestoreOntoWarm(t *testing.T) {
	ref := NewSeededEstimator(7)
	stateIntervals(t, ref, 3)
	st := ref.StreamState()

	warm := NewSeededEstimator(1313)
	// Materialize MORE shards than the snapshot has by running a larger
	// replicate count.
	base := []float64{0.5, 0.5}
	if _, err := warm.Interval(stateScore, base, base, Config{Replicates: 150 * 4}); err != nil {
		t.Fatal(err)
	}
	if err := warm.RestoreStreams(st); err != nil {
		t.Fatal(err)
	}
	want := stateIntervals(t, ref, 4)
	got := stateIntervals(t, warm, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d after warm restore %+v != %+v", i, got[i], want[i])
		}
	}
}
