// Package oplog is the durability tier under the HTTP server: an
// append-only, fsync-batched NDJSON write-ahead log of applied push
// rows, plus an on-disk store for spilled idle streams (store.go).
//
// The contract is at-least-once: a push row is acknowledged (the server
// writes its 200) only after its record is on disk, so a SIGKILL'd
// instance replays to a state containing every acknowledged row —
// exactly the durable prefix. Rows in flight at the crash (applied in
// memory but not yet synced) were never acknowledged and are simply
// absent after replay; clients that retry them get the same time
// indices they would have been assigned, because the replayed clock
// stops exactly where durability stopped.
//
// Layout of an oplog directory:
//
//	oplog-00000001.ndjson   log segments, one JSON Record per line,
//	oplog-00000002.ndjson   strictly ordered by segment index then line
//	checkpoint.json         the last full engine envelope (optional)
//	streams/                spilled per-stream envelopes (see store.go)
//
// Writes are group-committed: concurrent Enqueues accumulate in memory
// and one Sync flushes and fsyncs them all, so the fsync cost amortizes
// across the batch concurrency instead of multiplying with it. A
// checkpoint rewrites the full engine envelope atomically and compacts:
// every record is covered by the envelope (the server quiesces pushes
// while checkpointing), so all prior segments are deleted. Replay is
// therefore "last envelope + dirty suffix".
//
// On Open the final segment's torn tail — a partial line from a crash
// mid-write, or trailing garbage — is truncated back to the last intact
// record. Interior corruption (a bad line that is NOT the tail) fails
// Open loudly: that is not a crash artifact but real damage, and
// serving from a silently holed log would violate the acknowledgement
// contract.
package oplog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/bag"
)

// Record operation kinds.
const (
	// OpPush records one applied push row: stream id, the bag's assigned
	// time index, the bag points, the engine mutation mark stamped by the
	// applying batch, and the batch trace id (if any).
	OpPush = "push"
	// OpClose records an explicit stream close (lifecycle endpoint or
	// migration extract): on replay the stream's state is dropped exactly
	// as it was live, so a later life of the id starts from tick 0 again.
	// Evictions write no record: the log carries a spill store
	// (Log.Streams), so an evicted stream spills, and the spilled
	// envelope, not the log, carries its state onward.
	OpClose = "close"
)

// Record is one oplog line.
type Record struct {
	Op     string      `json:"op"`
	Stream string      `json:"stream"`
	BagT   int         `json:"bag_t,omitempty"`
	Bag    [][]float64 `json:"bag,omitempty"`
	// Mark is the engine mutation mark of the applying batch — a
	// monotone ordering hint carried per record so compaction can
	// cross-check that a checkpoint envelope (whose own Mark is read
	// under quiescence) really covers a segment before deleting it.
	Mark uint64 `json:"mark,omitempty"`
	// Trace is the batch correlation id, for post-hoc attribution of
	// replayed rows to client pushes.
	Trace string `json:"trace,omitempty"`
}

// valid is the torn-tail test: a line that does not parse into a
// well-formed record is where the durable log ends. Bag contents are
// vetted here too — a half-written float that still parses as JSON must
// count as torn, not replay garbage into a detector.
func (r *Record) valid() bool {
	switch r.Op {
	case OpPush:
		if r.Stream == "" || r.BagT < 0 || len(r.Bag) == 0 {
			return false
		}
		return (bag.Bag{Points: r.Bag}).Validate() == nil
	case OpClose:
		return r.Stream != ""
	default:
		return false
	}
}

const (
	segPrefix      = "oplog-"
	segSuffix      = ".ndjson"
	checkpointName = "checkpoint.json"
	// streamDirName is the spill store subdirectory Open places under
	// the oplog directory.
	streamDirName = "streams"
	// DefaultSegmentBytes rotates segments at 8 MiB: large enough that
	// rotation is rare, small enough that compaction reclaims space in
	// useful increments.
	DefaultSegmentBytes = 8 << 20
)

// Options parameterize Open.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// FsyncObserver, if non-nil, receives the duration of every data-file
	// fsync in seconds (the server points a latency histogram here).
	FsyncObserver func(seconds float64)
}

// segInfo is the per-segment census Open builds (and appends maintain).
type segInfo struct {
	index   uint64
	path    string
	bytes   int64
	records int
	maxMark uint64
}

// Stats is a point-in-time census of the log.
type Stats struct {
	Records              uint64 // records appended this process (not replayed ones)
	AppendedBytes        uint64 // bytes appended this process
	Fsyncs               uint64 // data-file fsyncs performed
	Rotations            uint64 // segment rotations
	TruncatedBytes       uint64 // torn-tail bytes discarded at Open
	Checkpoints          uint64 // checkpoints written this process
	CompactedSegments    uint64 // segments deleted by compaction
	Segments             int    // current segment count (including active)
	BytesSinceCheckpoint int64  // log bytes appended since the last checkpoint (or Open)
}

// Log is an open oplog directory. Safe for concurrent use.
type Log struct {
	dir     string
	opts    Options
	streams *StreamStore

	// qmu guards the enqueue side of the group commit: records land in
	// queue as marshaled lines and enqSeq labels the newest one.
	qmu      sync.Mutex
	queue    []byte
	qRecords int
	qMaxMark uint64
	enqSeq   uint64

	// smu guards the sync side: segment files, the synced high-water
	// sequence, checkpointing and compaction. It is held across fsync, so
	// concurrent Syncs coalesce — the second caller finds its records
	// already durable and returns without touching the disk.
	smu        sync.Mutex
	active     *os.File
	activeInfo segInfo
	sealed     []segInfo // older segments, ascending index
	synced     uint64
	err        error // sticky: a failed write poisons the log
	stats      Stats
}

// Open opens (creating if needed) the oplog directory and its spill
// store, truncates the final segment's torn tail, and indexes every
// segment for replay and compaction.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	streams, err := openStreamStore(filepath.Join(dir, streamDirName))
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, streams: streams}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		last := i == len(segs)-1
		if err := l.scanSegment(&segs[i], last, nil); err != nil {
			return nil, err
		}
	}
	if len(segs) == 0 {
		segs = []segInfo{{index: 1, path: l.segPath(1)}}
	}
	l.activeInfo = segs[len(segs)-1]
	l.sealed = segs[:len(segs)-1]
	f, err := os.OpenFile(l.activeInfo.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	l.active = f
	l.stats.Segments = len(l.sealed) + 1
	// Carried-over log bytes count toward the next checkpoint trigger:
	// a server that crashes before its first checkpoint should not need
	// another full segment of traffic before collapsing the backlog.
	l.stats.BytesSinceCheckpoint = l.activeInfo.bytes
	for _, s := range l.sealed {
		l.stats.BytesSinceCheckpoint += s.bytes
	}
	return l, nil
}

// Streams returns the directory's spill store.
func (l *Log) Streams() *StreamStore { return l.streams }

func (l *Log) segPath(index uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", segPrefix, index, segSuffix))
}

// listSegments returns the directory's segments in ascending index order.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("oplog: %w", err)
	}
	var segs []segInfo
	for _, ent := range ents {
		name := ent.Name()
		if !ent.Type().IsRegular() {
			continue
		}
		rest, ok := cutAffixes(name, segPrefix, segSuffix)
		if !ok {
			continue
		}
		var index uint64
		if _, err := fmt.Sscanf(rest, "%d", &index); err != nil || index == 0 {
			continue
		}
		segs = append(segs, segInfo{index: index, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	for i := 1; i < len(segs); i++ {
		if segs[i].index == segs[i-1].index {
			return nil, fmt.Errorf("oplog: duplicate segment index %d", segs[i].index)
		}
	}
	return segs, nil
}

func cutAffixes(s, prefix, suffix string) (string, bool) {
	if len(s) <= len(prefix)+len(suffix) {
		return "", false
	}
	if s[:len(prefix)] != prefix || s[len(s)-len(suffix):] != suffix {
		return "", false
	}
	return s[len(prefix) : len(s)-len(suffix)], true
}

// scanSegment walks one segment line by line, filling info's census and
// feeding each record to fn (when non-nil). For the final segment a
// torn or corrupt tail is truncated off the file; anywhere else it is
// an error.
func (l *Log) scanSegment(info *segInfo, tail bool, fn func(Record) error) error {
	f, err := os.Open(info.path)
	if err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	line := 0
	info.bytes, info.records, info.maxMark = 0, 0, 0
	for {
		raw, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return fmt.Errorf("oplog: reading %s: %w", info.path, err)
		}
		torn := err == io.EOF // no trailing newline: a write died mid-line
		body := raw
		if !torn && len(body) > 0 {
			body = body[:len(body)-1]
		}
		if len(body) == 0 && torn {
			break // clean EOF right after the final newline
		}
		var rec Record
		bad := torn || json.Unmarshal(body, &rec) != nil || !rec.valid()
		if bad {
			if !tail {
				return fmt.Errorf("oplog: segment %s line %d: corrupt record (not a crash tail — refusing to skip interior damage)", filepath.Base(info.path), line+1)
			}
			// Torn tail: everything from here was never acknowledged.
			if terr := os.Truncate(info.path, off); terr != nil {
				return fmt.Errorf("oplog: truncating torn tail of %s: %w", info.path, terr)
			}
			l.stats.TruncatedBytes += uint64(size - off)
			break
		}
		line++
		off += int64(len(raw))
		info.records++
		if rec.Mark > info.maxMark {
			info.maxMark = rec.Mark
		}
		if fn != nil {
			if ferr := fn(rec); ferr != nil {
				return fmt.Errorf("oplog: segment %s line %d: %w", filepath.Base(info.path), line, ferr)
			}
		}
		if err == io.EOF {
			break
		}
	}
	info.bytes = off
	return nil
}

// Enqueue marshals rec into the pending group-commit batch. The record
// is NOT durable until a Sync covering it returns nil. Callers that
// need per-stream replay order must enqueue in apply order (the server
// does this from the engine's apply hook, under the stream lock).
func (l *Log) Enqueue(rec *Record) {
	blob, err := json.Marshal(rec)
	if err != nil {
		// Only unencodable floats could do this, and bags are validated
		// finite — but if it ever happens, poison the log rather than
		// acknowledge a row that was never recorded.
		l.smu.Lock()
		if l.err == nil {
			l.err = fmt.Errorf("oplog: marshal record: %w", err)
		}
		l.smu.Unlock()
		return
	}
	l.qmu.Lock()
	defer l.qmu.Unlock()
	l.queue = append(l.queue, blob...)
	l.queue = append(l.queue, '\n')
	l.qRecords++
	if rec.Mark > l.qMaxMark {
		l.qMaxMark = rec.Mark
	}
	l.enqSeq++
}

// Append enqueues recs and syncs — the convenience path for records
// outside the push hot loop (close records, tests).
func (l *Log) Append(recs ...Record) error {
	for i := range recs {
		l.Enqueue(&recs[i])
	}
	return l.Sync()
}

// Sync makes every record enqueued before the call durable: the pending
// batch is written to the active segment (rotating first if it is over
// the size limit) and fsynced. Concurrent Syncs coalesce into one fsync.
// A Sync error is sticky: the log refuses all further writes, because a
// hole in the middle of a segment can never be acknowledged around.
func (l *Log) Sync() error {
	l.qmu.Lock()
	target := l.enqSeq
	l.qmu.Unlock()

	l.smu.Lock()
	defer l.smu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.synced >= target {
		return nil // a concurrent Sync already carried these records down
	}
	l.qmu.Lock()
	chunk := l.queue
	records, maxMark, upto := l.qRecords, l.qMaxMark, l.enqSeq
	l.queue = nil
	l.qRecords, l.qMaxMark = 0, 0
	l.qmu.Unlock()

	if l.activeInfo.bytes > 0 && l.activeInfo.bytes+int64(len(chunk)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return err
		}
	}
	if _, err := l.active.Write(chunk); err != nil {
		l.err = fmt.Errorf("oplog: append: %w", err)
		return l.err
	}
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		l.err = fmt.Errorf("oplog: fsync: %w", err)
		return l.err
	}
	if l.opts.FsyncObserver != nil {
		l.opts.FsyncObserver(time.Since(start).Seconds())
	}
	l.stats.Fsyncs++
	l.stats.Records += uint64(records)
	l.stats.AppendedBytes += uint64(len(chunk))
	l.stats.BytesSinceCheckpoint += int64(len(chunk))
	l.activeInfo.bytes += int64(len(chunk))
	l.activeInfo.records += records
	if maxMark > l.activeInfo.maxMark {
		l.activeInfo.maxMark = maxMark
	}
	l.synced = upto
	return nil
}

// rotateLocked seals the active segment and starts the next one.
// Callers hold smu.
func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("oplog: fsync before rotation: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("oplog: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, l.activeInfo)
	next := segInfo{index: l.activeInfo.index + 1, path: l.segPath(l.activeInfo.index + 1)}
	f, err := os.OpenFile(next.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("oplog: new segment: %w", err)
	}
	l.active = f
	l.activeInfo = next
	l.stats.Rotations++
	l.stats.Segments = len(l.sealed) + 1
	syncDir(l.dir)
	return nil
}

// Checkpoint atomically persists envelope (an opaque blob — the server
// passes a marshaled core.EngineSnapshot) as the directory's
// checkpoint, rotates, and compacts away every sealed segment. The
// caller must be quiescent: no pushes in flight, so every record in the
// log is covered by the envelope. mark is the envelope's engine
// mutation mark; a sealed segment carrying records marked AFTER it
// would mean the quiescence contract was violated, and is kept (and
// reported as an error) instead of deleted.
func (l *Log) Checkpoint(envelope []byte, mark uint64) error {
	if err := l.Sync(); err != nil { // pending records precede the envelope cut
		return err
	}
	l.smu.Lock()
	defer l.smu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := writeDurable(filepath.Join(l.dir, checkpointName), envelope); err != nil {
		return fmt.Errorf("oplog: checkpoint: %w", err)
	}

	// The envelope is durable; everything before it is redundant. Seal
	// the active segment so the whole pre-checkpoint log is compactable.
	if l.activeInfo.records > 0 {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return err
		}
	}
	var kept []segInfo
	var firstErr error
	for _, seg := range l.sealed {
		if seg.maxMark > mark {
			if firstErr == nil {
				firstErr = fmt.Errorf("oplog: segment %s carries mark %d past checkpoint mark %d — checkpoint taken without quiescing pushes?", filepath.Base(seg.path), seg.maxMark, mark)
			}
			kept = append(kept, seg)
			continue
		}
		if err := os.Remove(seg.path); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("oplog: compacting %s: %w", filepath.Base(seg.path), err)
			}
			kept = append(kept, seg)
			continue
		}
		l.stats.CompactedSegments++
	}
	l.sealed = kept
	l.stats.Segments = len(l.sealed) + 1
	l.stats.Checkpoints++
	l.stats.BytesSinceCheckpoint = 0
	syncDir(l.dir)
	return firstErr
}

// LoadCheckpoint returns the checkpoint blob, or ok=false when no
// checkpoint has ever been written.
func (l *Log) LoadCheckpoint() (blob []byte, ok bool, err error) {
	blob, err = os.ReadFile(filepath.Join(l.dir, checkpointName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("oplog: %w", err)
	}
	return blob, true, nil
}

// Replay feeds every durable record, in segment-then-line order, to fn.
// Call it after Open and before the first Enqueue (the server replays
// before it starts serving); fn errors abort the replay.
func (l *Log) Replay(fn func(Record) error) error {
	l.smu.Lock()
	segs := make([]segInfo, 0, len(l.sealed)+1)
	segs = append(segs, l.sealed...)
	segs = append(segs, l.activeInfo)
	l.smu.Unlock()
	for i := range segs {
		if segs[i].records == 0 {
			continue
		}
		// Tails were truncated at Open; any damage found now is interior.
		if err := l.scanSegment(&segs[i], false, fn); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the log's census.
func (l *Log) Stats() Stats {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.stats
}

// BytesSinceCheckpoint returns the log bytes appended since the last
// checkpoint — the server's auto-checkpoint trigger reads it per push.
func (l *Log) BytesSinceCheckpoint() int64 {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.stats.BytesSinceCheckpoint
}

// Err returns the sticky write error, if the log is poisoned.
func (l *Log) Err() error {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.err
}

// Close syncs pending records and closes the active segment. The log
// refuses writes afterwards.
func (l *Log) Close() error {
	err := l.Sync()
	l.smu.Lock()
	defer l.smu.Unlock()
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	if l.err == nil {
		l.err = fmt.Errorf("oplog: log is closed")
	}
	return err
}

// writeDurable atomically and durably replaces path with blob: the bytes
// go to a temp file that is fsynced, closed and renamed over path, then
// the directory is synced so the rename survives a crash. On error the
// temp file is removed and path is untouched.
func writeDurable(path string, blob []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(blob); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable. Errors are ignored: some filesystems refuse directory fsync,
// and the data-file fsyncs already carry the acknowledgement contract.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
