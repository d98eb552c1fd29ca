package server

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzReadRows drives the push decoder with arbitrary bodies. It must
// never panic, and whenever it accepts a body every row must address a
// stream and carry a non-empty, rectangular, finite bag, with no more
// rows than the batch cap.
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
		rows, err := s.readRows(httptest.NewRequest("POST", "/v1/push", strings.NewReader(body)))
		if err != nil {
			return
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
