package oplog

import (
	"encoding/base32"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// StreamStore is the disk half of the bounded detector pool: one file
// per spilled stream, holding that stream's single-stream partial
// envelope (core.EngineSnapshot via SplitByStream, marshaled by the
// caller — the store treats blobs as opaque). The filename encodes the
// stream id (base32, so arbitrary ids are filesystem-safe), which makes
// the store's census a directory listing and needs no separate index
// file to keep crash-consistent.
//
// Writes are atomic and durable (tmp + fsync + rename + dir sync): a
// spilled stream's envelope is the ONLY copy of its state once the
// checkpoint compacts its oplog records away, so a half-written spill
// file must be impossible. Safe for concurrent use.
type StreamStore struct {
	dir string

	mu  sync.Mutex
	ids map[string]bool
}

const spillSuffix = ".json"

// spillEncoding makes stream ids filesystem-safe. No padding: '=' is
// legal in filenames but ugly, and decode is unambiguous without it.
var spillEncoding = base32.StdEncoding.WithPadding(base32.NoPadding)

// maxSpillID bounds the encodable stream id length: base32 expands 8/5
// and filenames cap at 255 bytes on common filesystems. Ids beyond it
// cannot spill (the server keeps them resident and says why).
const maxSpillID = 150

// openStreamStore opens (creating if needed) a spill directory and
// indexes the streams already spilled there.
func openStreamStore(dir string) (*StreamStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("oplog: stream store: %w", err)
	}
	s := &StreamStore{dir: dir, ids: make(map[string]bool)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("oplog: stream store: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if !ent.Type().IsRegular() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			// A spill that died before its rename; the stream was still
			// resident (files replace their stream only after a durable
			// rename), so the remnant is garbage.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		enc, ok := strings.CutSuffix(name, spillSuffix)
		if !ok {
			continue
		}
		raw, err := spillEncoding.DecodeString(enc)
		if err != nil {
			return nil, fmt.Errorf("oplog: stream store: undecodable spill file %q", name)
		}
		s.ids[string(raw)] = true
	}
	return s, nil
}

func (s *StreamStore) path(id string) string {
	return filepath.Join(s.dir, spillEncoding.EncodeToString([]byte(id))+spillSuffix)
}

// Put durably stores blob as stream id's spilled envelope, replacing
// any previous spill of the id.
func (s *StreamStore) Put(id string, blob []byte) error {
	if id == "" {
		return fmt.Errorf("oplog: stream store: empty stream id")
	}
	if len(id) > maxSpillID {
		return fmt.Errorf("oplog: stream store: id %q is %d bytes, spill supports at most %d", id, len(id), maxSpillID)
	}
	if err := writeDurable(s.path(id), blob); err != nil {
		return fmt.Errorf("oplog: stream store: spill %q: %w", id, err)
	}
	s.mu.Lock()
	s.ids[id] = true
	s.mu.Unlock()
	return nil
}

// Get returns stream id's spilled envelope blob; ok=false when the
// stream is not spilled.
func (s *StreamStore) Get(id string) ([]byte, bool, error) {
	s.mu.Lock()
	known := s.ids[id]
	s.mu.Unlock()
	if !known {
		return nil, false, nil
	}
	blob, err := os.ReadFile(s.path(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("oplog: stream store: read %q: %w", id, err)
	}
	return blob, true, nil
}

// Has reports whether stream id is spilled.
func (s *StreamStore) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids[id]
}

// Delete removes stream id's spill file (after a fault-in, or when the
// live engine's state supersedes it). Missing files are not an error.
func (s *StreamStore) Delete(id string) error {
	err := os.Remove(s.path(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("oplog: stream store: delete %q: %w", id, err)
	}
	syncDir(s.dir)
	s.mu.Lock()
	delete(s.ids, id)
	s.mu.Unlock()
	return nil
}

// Len returns the number of spilled streams.
func (s *StreamStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// IDs returns the spilled stream ids (unordered).
func (s *StreamStore) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.ids))
	for id := range s.ids {
		out = append(out, id)
	}
	return out
}
