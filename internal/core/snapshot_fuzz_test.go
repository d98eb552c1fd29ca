package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/signature"
)

// canonicalEnvelope is the JSON an envelope must round-trip to: the
// engine-local Mark and the Partial flag cleared (a fresh engine that
// merged a partial envelope holds exactly its streams), streams in id
// order (Snapshot's order),
// and nil slices marshalled as empty ones (JSON null and [] decode to
// the same empty state).
func canonicalEnvelope(t *testing.T, env *EngineSnapshot) []byte {
	t.Helper()
	c := *env
	c.Mark = 0
	c.Partial = false
	c.Streams = append([]StreamSnapshot(nil), env.Streams...)
	sort.SliceStable(c.Streams, func(i, j int) bool { return c.Streams[i].ID < c.Streams[j].ID })
	v := reflect.ValueOf(&c).Elem()
	emptyNilSlices(v)
	blob, err := json.Marshal(&c)
	if err != nil {
		t.Fatalf("marshal canonical envelope: %v", err)
	}
	return blob
}

// emptyNilSlices replaces every nil slice reachable from v (through
// struct fields, slice elements and non-nil pointers) with an empty one.
// Slices it descends into are copied first, so the caller's envelope is
// never modified.
func emptyNilSlices(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			elem := reflect.New(v.Elem().Type())
			elem.Elem().Set(v.Elem())
			emptyNilSlices(elem.Elem())
			v.Set(elem)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				emptyNilSlices(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.IsNil() {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			return
		}
		cp := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(cp, v)
		for i := 0; i < cp.Len(); i++ {
			emptyNilSlices(cp.Index(i))
		}
		v.Set(cp)
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes through the path a server's
// POST /v1/restore takes: json.Unmarshal → ValidateSnapshot →
// Engine.Restore. No input may panic; any envelope ValidateSnapshot
// accepts must restore onto a fresh engine (Restore for a complete
// envelope, RestoreStreams for a partial one), because a server
// validates before it tears its live streams down; and the restored
// engine must round-trip: a Snapshot taken straight after the restore
// marshals to the same canonical JSON as the accepted envelope. The
// engine runs a randomized (k-means) builder, so builder RNG state is in
// play. Run it continuously with:
//
//	go test -run='^$' -fuzz=FuzzRestoreSnapshot ./internal/core
func FuzzRestoreSnapshot(f *testing.F) {
	factory := signature.KMeansFactory(3, cluster.Config{MaxIters: 10})

	src := newTestEngine(f, factory, 1)
	for _, id := range []string{"a", "b"} {
		for _, b := range streamBags2D(id, 7) {
			if _, err := src.PushBatch([]StreamBag{{StreamID: id, Bag: b}}); err != nil {
				f.Fatal(err)
			}
		}
	}
	snap, err := src.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	src.Shutdown()
	// The real envelope must be accepted, or the fuzzer would only ever
	// exercise refusals.
	chk := newTestEngine(f, factory, 1)
	if err := chk.Restore(snap); err != nil {
		f.Fatalf("seed envelope refused: %v", err)
	}
	chk.Shutdown()
	full, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	one := *snap
	one.Streams = snap.Streams[:1]
	oneBlob, err := json.Marshal(&one)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oneBlob)
	partBlob, err := json.Marshal(&snap.SplitByStream()[1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(partBlob)
	f.Add(bytes.Replace(full, []byte(`"version":6`), []byte(`"version":5`), 1))
	f.Add([]byte(`{"version":6,"seed":42,"tau":3,"tau_prime":3,"statistic":"kl","streams":[]}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var env EngineSnapshot
		if err := json.Unmarshal(data, &env); err != nil {
			return
		}
		eng := newTestEngine(t, factory, 1)
		defer eng.Shutdown()
		if err := eng.ValidateSnapshot(&env); err != nil {
			return
		}
		restore := eng.Restore
		if env.Partial {
			restore = eng.RestoreStreams
		}
		if err := restore(&env); err != nil {
			t.Fatalf("ValidateSnapshot accepted an envelope its restore refuses: %v", err)
		}
		got, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("snapshot after an accepted restore: %v", err)
		}
		if want, have := canonicalEnvelope(t, &env), canonicalEnvelope(t, got); !bytes.Equal(want, have) {
			t.Fatalf("accepted envelope does not round-trip:\n restored %s\n snapshot %s", want, have)
		}
	})
}
