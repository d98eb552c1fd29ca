package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bag"
	"repro/internal/core"
)

// referenceDecode is the push decoder without the row scanner: every
// line through json.Unmarshal, then the stream, bag and Validate checks.
// FuzzReadRows holds DecodePushRows to it.
func referenceDecode(body string) ([]PushRow, error) {
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(nil, 1<<26)
	var rows []PushRow
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var row PushRow
		if err := json.Unmarshal(text, &row); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if row.Stream == "" {
			return nil, fmt.Errorf("line %d: missing stream id", line)
		}
		if len(row.Bag) == 0 {
			return nil, fmt.Errorf("line %d: empty bag", line)
		}
		if err := (bag.Bag{Points: row.Bag}).Validate(); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// FuzzReadRows is a differential test of the push decoder against
// referenceDecode: every body must get the same verdict and the same
// error string, and an accepted body the same stream ids and the same
// coordinate bits, nil versus empty included. The server's row cap must
// refuse exactly the bodies with too many rows, and each raw line the
// router forwards must decode back to its row's stream. Run it
// continuously with:
//
//	go test -run='^$' -fuzz=FuzzReadRows ./internal/server
func FuzzReadRows(f *testing.F) {
	for _, seed := range []string{
		`{"stream":"a","bag":[[1.5],[2]]}` + "\n",
		"\n  \n" + `{"stream":"a","bag":[[1,2],[3,4]]}` + "\n\n" + `{"stream":"b","bag":[[0,0]]}`,
		`{"stream":"a","bag":[[1,2],[3]]}`,
		`{"bag":[[1]]}`,
		`{"stream":"","bag":[[1]]}`,
		`{"stream":"a","bag":[]}`,
		`{"stream":"a","bag":[[1e400]]}`,
		`{"stream":"a","bag":[[-1e308,1e308]]}`,
		`{"stream":"a","bag":[["x"]]}`,
		`{"stream":"a","bag":[[1]]}` + strings.Repeat("\n"+`{"stream":"a","bag":[[1]]}`, 8),
		`{"stream":"a"`,
		// Key orders the scanner leaves to encoding/json.
		`{"bag":[[1]],"stream":"a"}`,
		`{"STREAM":"a","bag":[[1]]}`,
		`{"stream":"a","bag":[[1]],"stream":"b"}`,
		`{"stream":"a","stream":"b","bag":[[1]]}`,
		`{"stream":"a","bag":[[1]],"bag":[[2,3]]}`,
		// Stream ids outside printable ASCII, escaped or raw.
		`{"stream":"s\u00e9","bag":[[1]]}`,
		`{"stream":"sé","bag":[[1]]}`,
		`{"stream":"a\"b","bag":[[1]]}`,
		// Values.
		`{"stream":"a","bag":null}`,
		`{"stream":"a","bag":[[]]}`,
		`{"stream":"a","bag":[[-0],[0]]}`,
		`{"stream":"a","bag":[[1e-400]]}`,
		`{"stream":"a","bag":[[1.7976931348623158e308]]}`,
		`{"stream":"a","bag":[[1.7976931348623159e308]]}`,
		`{"stream":"a","bag":[[01]]}`,
		`{"stream":"a","bag":[[+1]]}`,
		`{"stream":"a","bag":[[.5]]}`,
		`{"stream":"a","bag":[[1.]]}`,
		`{"stream":"a","bag":[[1E+2,-2.5e-3]]}`,
		// Layout.
		" \t{ \"stream\" : \"a\" , \"bag\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } \r\n",
		`{"stream":"a","bag":[[1]]}x`,
		`{"stream":"a","bag":[[1]]}}`,
		`{"stream":"a","bag":[[1]]} {}`,
	} {
		f.Add(seed)
	}
	const maxBags = 4
	s := &Server{cfg: Config{MaxBatchBags: maxBags}}
	f.Fuzz(func(t *testing.T, body string) {
		want, wantErr := referenceDecode(body)
		var got []PushRow
		var lines []string
		err := DecodePushRows([]byte(body), func(row PushRow, line []byte) error {
			got = append(got, row)
			lines = append(lines, string(line))
			return nil
		})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("decode error %v, encoding/json gives %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d rows, encoding/json gives %d", len(got), len(want))
		}
		for i, row := range got {
			if row.Stream != want[i].Stream {
				t.Fatalf("row %d: stream %q, encoding/json gives %q", i, row.Stream, want[i].Stream)
			}
			if len(row.Bag) != len(want[i].Bag) || (row.Bag == nil) != (want[i].Bag == nil) {
				t.Fatalf("row %d: bag %v, encoding/json gives %v", i, row.Bag, want[i].Bag)
			}
			for j, p := range row.Bag {
				q := want[i].Bag[j]
				if len(p) != len(q) || (p == nil) != (q == nil) {
					t.Fatalf("row %d point %d: %v, encoding/json gives %v", i, j, p, q)
				}
				for k := range p {
					if math.Float64bits(p[k]) != math.Float64bits(q[k]) {
						t.Fatalf("row %d point %d coordinate %d: %v, encoding/json gives %v", i, j, k, p[k], q[k])
					}
				}
			}
			var back PushRow
			if err := json.Unmarshal([]byte(lines[i]), &back); err != nil || back.Stream != row.Stream {
				t.Fatalf("raw line %d %q does not decode to stream %q (%v)", i, lines[i], row.Stream, err)
			}
		}
		if _, err := s.readRows([]byte(body)); (err != nil) != (len(want) > maxBags) {
			t.Fatalf("server decode of %d rows with a cap of %d: error %v", len(want), maxBags, err)
		}
	})
}

// FuzzSpilledEnvelope writes arbitrary bytes as stream "a"'s spill file
// and pushes to "a", which faults the file in. It must never panic. The
// push either applies — "a" is open and its row carries no error — or
// fails with "a"'s file kept, and no stream other than "a" is ever
// opened, whatever streams the file's envelope names. Run it
// continuously with:
//
//	go test -run='^$' -fuzz=FuzzSpilledEnvelope ./internal/server
func FuzzSpilledEnvelope(f *testing.F) {
	src := testEngine(f)
	for step := 0; step < 6; step++ {
		for _, id := range []string{"a", "b"} {
			if _, err := src.PushBatch([]core.StreamBag{{StreamID: id, Bag: streamBag(id, step)}}); err != nil {
				f.Fatal(err)
			}
		}
	}
	both, err := src.SnapshotStreams("a", "b")
	if err != nil {
		f.Fatal(err)
	}
	src.Shutdown()
	parts := both.SplitByStream()
	for _, env := range []*core.EngineSnapshot{&parts[0], &parts[1], both} {
		blob, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":6,"seed":42,"tau":3,"tau_prime":3,"statistic":"kl","replicates":150,"alpha":0.05,"partial":true,"streams":[{"id":"a","detector":{"count":1}}]}`))

	body := pushBody(6, "a")
	f.Fuzz(func(t *testing.T, blob []byte) {
		srv, err := New(Config{Engine: testEngine(t), OplogDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := srv.spill.Put("a", blob); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/push", strings.NewReader(body)))

		if ids := srv.eng.StreamIDs(); len(ids) > 1 || (len(ids) == 1 && ids[0] != "a") {
			t.Fatalf("spill file for a opened streams %v", ids)
		}
		if rec.Code != http.StatusOK {
			if !srv.spill.Has("a") {
				t.Fatalf("failed push (status %d) dropped a's spill file", rec.Code)
			}
			return
		}
		var row resultRow
		if err := json.Unmarshal(rec.Body.Bytes(), &row); err != nil {
			t.Fatalf("push response %q: %v", rec.Body.String(), err)
		}
		if _, open := srv.eng.Get("a"); row.Error == "" && !open {
			t.Fatal("push applied but stream a is not open")
		}
	})
}
