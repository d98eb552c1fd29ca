package randx

import (
	"encoding/json"
	"testing"
)

// drawMix consumes a mixed diet of sampler calls (the ones the detector
// pipeline actually uses) and returns a digest of the values, so two
// streams can be compared for bit-identity.
func drawMix(r *RNG, n int) []float64 {
	out := make([]float64, 0, 4*n)
	alpha := []float64{1, 1, 0.5, 2}
	dst := make([]float64, len(alpha))
	for i := 0; i < n; i++ {
		out = append(out, float64(r.Int63()))
		out = append(out, r.Float64())
		out = append(out, r.Normal(0, 1))
		r.DirichletInto(alpha, dst)
		out = append(out, dst[0], dst[3])
		out = append(out, r.ExpFloat64())
	}
	return out
}

func mustState(t *testing.T, r *RNG) State {
	t.Helper()
	st, err := r.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRNGStateRoundTrip(t *testing.T) {
	t.Run("fast", func(t *testing.T) {
		ref := NewFast(12345)
		drawMix(ref, 50) // advance to an arbitrary mid-stream position
		st := mustState(t, ref)

		// JSON round-trip: the state must survive serialization, since
		// the engine snapshot envelope carries it over the wire.
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("state JSON round-trip %+v != %+v", back, st)
		}

		restored := NewFast(0)
		if err := restored.Restore(back); err != nil {
			t.Fatal(err)
		}
		want := drawMix(ref, 30)
		got := drawMix(restored, 30)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("draw %d: restored %v != original %v", i, got[i], want[i])
			}
		}
		if mustState(t, restored) != mustState(t, ref) {
			t.Fatalf("post-draw states diverge: %+v vs %+v", mustState(t, restored), mustState(t, ref))
		}
	})
}

func TestRNGRestoreInPlace(t *testing.T) {
	ref := NewFast(7)
	drawMix(ref, 10)
	st := mustState(t, ref)
	want := drawMix(ref, 10)

	// Restore onto an RNG that is on a completely different stream.
	other := NewFast(99)
	drawMix(other, 3)
	if err := other.Restore(st); err != nil {
		t.Fatal(err)
	}
	got := drawMix(other, 10)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestRNGRestoreCopiesWords: Restore is a copy of the four state words,
// not a replay — the next Uint64 is exactly one xoshiro256++ step from
// the restored words, whatever they are — and the all-zero fixed point
// is refused without touching the stream.
func TestRNGRestoreCopiesWords(t *testing.T) {
	rotl := func(v uint64, k uint) uint64 { return (v << k) | (v >> (64 - k)) }
	for _, s := range [][4]uint64{
		{1, 2, 3, 4},
		{0, 0, 0, 1},
		{^uint64(0), 0x0123456789abcdef, 0, 1 << 63},
	} {
		r := NewFast(5)
		if err := r.Restore(State{S: s}); err != nil {
			t.Fatal(err)
		}
		want := rotl(s[0]+s[3], 23) + s[0]
		if got := r.Uint64(); got != want {
			t.Fatalf("first draw after Restore(%x) = %x, want %x", s, got, want)
		}
	}

	r := NewFast(5)
	before := mustState(t, r)
	if err := r.Restore(State{}); err == nil {
		t.Fatal("expected the all-zero state to be refused")
	}
	if mustState(t, r) != before {
		t.Fatal("a refused Restore moved the stream")
	}
}

// TestRNGStdBackendHasNoState: a stdlib-backed RNG cannot export or
// restore a position — both calls error rather than panic.
func TestRNGStdBackendHasNoState(t *testing.T) {
	r := New(1)
	if _, err := r.State(); err == nil {
		t.Fatal("expected State to error on a New RNG")
	}
	if err := r.Restore(mustState(t, NewFast(1))); err == nil {
		t.Fatal("expected Restore to error on a New RNG")
	}
}

func TestReseedResetsState(t *testing.T) {
	r := NewFast(3)
	drawMix(r, 5)
	r.Reseed(8)
	fresh := NewFast(8)
	if mustState(t, r) != mustState(t, fresh) {
		t.Fatalf("state after Reseed = %+v, want %+v", mustState(t, r), mustState(t, fresh))
	}
	a, b := drawMix(r, 5), drawMix(fresh, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reseeded stream diverges from fresh stream at %d", i)
		}
	}
}
