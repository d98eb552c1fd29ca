package oplog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func pushRec(stream string, t int, mark uint64) Record {
	return Record{
		Op:     OpPush,
		Stream: stream,
		BagT:   t,
		Bag:    [][]float64{{float64(t), 1.5}, {2.25, -3}},
		Mark:   mark,
		Trace:  "tr",
	}
}

func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestRoundtrip: appended records come back byte-for-byte from a fresh
// Open of the same directory, in append order.
func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	want := []Record{
		pushRec("a", 0, 1),
		pushRec("b", 0, 2),
		pushRec("a", 1, 3),
		{Op: OpClose, Stream: "b", Mark: 3},
	}
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("same-process replay = %+v, want %+v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, Options{})
	if got := replayAll(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened replay = %+v, want %+v", got, want)
	}
	if st := l2.Stats(); st.TruncatedBytes != 0 {
		t.Fatalf("clean log truncated %d bytes", st.TruncatedBytes)
	}
}

// TestRotation: a tiny segment limit forces rotations; replay order and
// content survive, and the directory really holds multiple segments.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 128})
	var want []Record
	for i := 0; i < 40; i++ {
		rec := pushRec("s", i, uint64(i+1))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 {
		t.Fatal("no rotations at SegmentBytes=128")
	}
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2", st.Segments)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) != st.Segments {
		t.Fatalf("on-disk segments = %d (%v), stats say %d", len(segs), err, st.Segments)
	}
	l.Close()

	l2 := mustOpen(t, dir, Options{SegmentBytes: 128})
	if got := replayAll(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("rotated replay lost records: got %d, want %d", len(got), len(want))
	}
}

// TestTornTail: every flavor of crash damage at the end of the final
// segment is truncated back to the last intact record at Open.
func TestTornTail(t *testing.T) {
	cases := []struct {
		name string
		tail string
	}{
		{"partial line", `{"op":"push","stream":"s","bag_t":2,"bag":[[1.0`},
		{"garbage line with newline", "#!garbage!#\n"},
		{"valid json, invalid record", `{"op":"push","stream":"","bag_t":2,"bag":[[1]]}` + "\n"},
		{"unknown op", `{"op":"merge","stream":"s"}` + "\n"},
		{"negative bag_t", `{"op":"push","stream":"s","bag_t":-1,"bag":[[1]]}` + "\n"},
		{"empty bag", `{"op":"push","stream":"s","bag_t":2,"bag":[]}` + "\n"},
		{"whitespace tail", "   \n"},
		{"bare newline", "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{})
			want := []Record{pushRec("s", 0, 1), pushRec("s", 1, 2)}
			if err := l.Append(want...); err != nil {
				t.Fatal(err)
			}
			l.Close()

			seg := filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, 1, segSuffix))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2 := mustOpen(t, dir, Options{})
			if st := l2.Stats(); st.TruncatedBytes != uint64(len(tc.tail)) {
				t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(tc.tail))
			}
			if got := replayAll(t, l2); !reflect.DeepEqual(got, want) {
				t.Fatalf("replay after truncation = %+v, want %+v", got, want)
			}
			// The truncation is physical: a third open sees a clean log.
			l2.Close()
			l3 := mustOpen(t, dir, Options{})
			if st := l3.Stats(); st.TruncatedBytes != 0 {
				t.Fatalf("second open truncated again: %d bytes", st.TruncatedBytes)
			}
		})
	}
}

// TestInteriorCorruptionRefused: damage that is NOT the crash tail —
// a bad line in a sealed segment — fails Open loudly instead of being
// skipped.
func TestInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if err := l.Append(pushRec("s", i, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 2 {
		t.Fatal("test needs a sealed segment")
	}
	l.Close()

	first := filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, 1, segSuffix))
	blob, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	blob = bytes.Replace(blob, []byte(`"op":"push"`), []byte(`"op":"bogus"`), 1)
	if err := os.WriteFile(first, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("Open with interior corruption: err = %v, want corrupt-record refusal", err)
	}
}

// TestCheckpointCompaction: a checkpoint persists the envelope, deletes
// the pre-checkpoint segments, and replay afterwards yields only the
// post-checkpoint suffix.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append(pushRec("s", i, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	envelope := []byte(`{"fake":"envelope"}`)
	if err := l.Checkpoint(envelope, 5); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if got, ok, err := l.LoadCheckpoint(); err != nil || !ok || !bytes.Equal(got, envelope) {
		t.Fatalf("LoadCheckpoint = %q, %v, %v", got, ok, err)
	}
	if st := l.Stats(); st.CompactedSegments == 0 || st.BytesSinceCheckpoint != 0 {
		t.Fatalf("after checkpoint: %+v", st)
	}
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("replay after checkpoint = %d records, want 0", len(got))
	}

	suffix := []Record{pushRec("s", 5, 6), pushRec("s", 6, 7)}
	if err := l.Append(suffix...); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := mustOpen(t, dir, Options{})
	if got, ok, err := l2.LoadCheckpoint(); err != nil || !ok || !bytes.Equal(got, envelope) {
		t.Fatalf("reopened LoadCheckpoint = %q, %v, %v", got, ok, err)
	}
	if got := replayAll(t, l2); !reflect.DeepEqual(got, suffix) {
		t.Fatalf("reopened replay = %+v, want the post-checkpoint suffix %+v", got, suffix)
	}
}

// TestCheckpointQuiescenceViolation: a segment carrying records marked
// past the checkpoint's mark is kept, and the violation is reported.
func TestCheckpointQuiescenceViolation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	if err := l.Append(pushRec("s", 0, 10)); err != nil {
		t.Fatal(err)
	}
	err := l.Checkpoint([]byte("{}"), 5)
	if err == nil || !strings.Contains(err.Error(), "past checkpoint mark") {
		t.Fatalf("checkpoint below record marks: err = %v", err)
	}
	// The mark-10 record must still replay — it was not compacted away.
	if got := replayAll(t, l); len(got) != 1 || got[0].Mark != 10 {
		t.Fatalf("replay = %+v, want the kept mark-10 record", got)
	}
}

// TestGroupCommitConcurrent: concurrent Enqueue+Sync from many
// goroutines loses nothing, and the coalescing means fewer fsyncs than
// records.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := fmt.Sprintf("w%d", w)
			for i := 0; i < per; i++ {
				rec := pushRec(stream, i, uint64(w*per+i+1))
				l.Enqueue(&rec)
				if err := l.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()

	l2 := mustOpen(t, dir, Options{})
	recs := replayAll(t, l2)
	if len(recs) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), workers*per)
	}
	// Per-stream order must be enqueue order even under contention.
	next := make(map[string]int)
	for _, r := range recs {
		if r.BagT != next[r.Stream] {
			t.Fatalf("stream %s: record bag_t %d, want %d (order lost)", r.Stream, r.BagT, next[r.Stream])
		}
		next[r.Stream]++
	}
}

// TestCloseRefusesWrites: a closed log is poisoned.
func TestCloseRefusesWrites(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(pushRec("s", 0, 1)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after Close")
	}
}

// TestStreamStore: the spill store round-trips arbitrary ids, survives
// reopen, cleans tmp remnants, and enforces its id bounds.
func TestStreamStore(t *testing.T) {
	dir := t.TempDir()
	s, err := openStreamStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"plain", "weird/../id \x00!", "uni-ço∂é"}
	for i, id := range ids {
		if err := s.Put(id, []byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatalf("put %q: %v", id, err)
		}
	}
	if s.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ids))
	}
	// Overwrite replaces.
	if err := s.Put("plain", []byte("blob-0b")); err != nil {
		t.Fatal(err)
	}
	if blob, ok, err := s.Get("plain"); err != nil || !ok || string(blob) != "blob-0b" {
		t.Fatalf("Get plain = %q, %v, %v", blob, ok, err)
	}
	if _, ok, _ := s.Get("absent"); ok {
		t.Fatal("Get(absent) ok")
	}
	if err := s.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	if s.Has(ids[1]) {
		t.Fatal("Has after Delete")
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of missing id: %v", err)
	}

	// A tmp remnant from a crashed spill is swept at open; real spills
	// survive the reopen with their ids decoded back from the filenames.
	if err := os.WriteFile(filepath.Join(dir, "leftover.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := openStreamStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 || !s2.Has("plain") || !s2.Has(ids[2]) {
		t.Fatalf("reopened store: Len=%d IDs=%v", s2.Len(), s2.IDs())
	}
	if _, err := os.Stat(filepath.Join(dir, "leftover.tmp")); !os.IsNotExist(err) {
		t.Fatal("tmp remnant survived reopen")
	}

	if err := s2.Put("", []byte("x")); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := s2.Put(strings.Repeat("x", maxSpillID+1), []byte("x")); err == nil {
		t.Fatal("oversized id accepted")
	}
}
