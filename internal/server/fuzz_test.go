package server

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
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
