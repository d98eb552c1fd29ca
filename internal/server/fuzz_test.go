package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzReadRows drives the push decoder with arbitrary bodies, both as
// the server reads them (rows, capped) and as the router does (raw
// lines, uncapped). It must never panic; whenever the server accepts a
// body every row must address a stream and carry a non-empty,
// rectangular, finite bag, with no more rows than the batch cap; and
// the router's view must agree: same verdict below the cap, and one
// raw line per row that decodes back to that row's stream.
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
	} {
		f.Add(seed)
	}
	const maxBags = 4
	s := &Server{cfg: Config{MaxBatchBags: maxBags}}
	f.Fuzz(func(t *testing.T, body string) {
		rows, err := s.readRows(strings.NewReader(body))
		var lines []string
		rerr := DecodePushRows(strings.NewReader(body), func(_ PushRow, line []byte) error {
			lines = append(lines, string(line))
			return nil
		})
		if (rerr == nil) != (err == nil) && len(lines) <= maxBags {
			t.Fatalf("router decode error %v, server decode error %v", rerr, err)
		}
		if err != nil {
			return
		}
		if len(lines) != len(rows) {
			t.Fatalf("router kept %d lines for %d rows", len(lines), len(rows))
		}
		for i, line := range lines {
			var row PushRow
			if err := json.Unmarshal([]byte(line), &row); err != nil || row.Stream != rows[i].Stream {
				t.Fatalf("raw line %d %q does not decode to stream %q (%v)", i, line, rows[i].Stream, err)
			}
		}
		if len(rows) > maxBags {
			t.Fatalf("accepted %d rows, cap is %d", len(rows), maxBags)
		}
		for i, row := range rows {
			if row.Stream == "" {
				t.Fatalf("row %d: empty stream id accepted", i)
			}
			if len(row.Bag) == 0 {
				t.Fatalf("row %d: empty bag accepted", i)
			}
			for j, p := range row.Bag {
				if len(p) != len(row.Bag[0]) {
					t.Fatalf("row %d: ragged bag accepted (point %d has dim %d, point 0 has %d)", i, j, len(p), len(row.Bag[0]))
				}
				for _, v := range p {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("row %d: non-finite coordinate %g accepted", i, v)
					}
				}
			}
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
