package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/randx"
)

// canonicalBody returns a push body of rows rows in the documented
// form, each a 1-D bag of points points, numbers formatted as
// strconv.AppendFloat writes them.
func canonicalBody(rows, points int) []byte {
	rng := randx.New(11)
	var b []byte
	for r := 0; r < rows; r++ {
		b = fmt.Appendf(b, `{"stream":"s%04d","bag":[`, r)
		for p := 0; p < points; p++ {
			if p > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendFloat(b, rng.Normal(0, 1), 'g', -1, 64)
			b = append(b, ']')
		}
		b = append(b, "]}\n"...)
	}
	return b
}

// TestDecodePushRowsAllocs: reading and decoding a canonical 64-row body
// takes the same number of allocations at 50 and at 500 points per bag —
// the body buffer, the two arenas and one string per stream id — where
// a reflective decode allocates per point.
func TestDecodePushRowsAllocs(t *testing.T) {
	const rows = 64
	// A GC cycle makes allocations of its own, and the large body runs
	// several: keep the collector out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(points int) float64 {
		body := canonicalBody(rows, points)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/push", rd)
		w := httptest.NewRecorder()
		return testing.AllocsPerRun(5, func() {
			rd.Reset(body)
			got, err := ReadBody(w, req, DefaultMaxBatchBytes)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := DecodePushRows(got, func(PushRow, []byte) error { n++; return nil }); err != nil || n != rows {
				t.Fatalf("decoded %d rows, error %v", n, err)
			}
		})
	}
	small, large := count(50), count(500)
	if small != large {
		t.Fatalf("allocations grow with the point count: %v at 50 points per bag, %v at 500", small, large)
	}
	if small > rows+8 {
		t.Fatalf("%v allocations for %d rows, want at most %d", small, rows, rows+8)
	}
}

// TestDecodePushRowsArenaBound: brackets and commas inside a string,
// and blank lines, cannot size the arenas. One short row is followed by
// a row the scanner refuses, whose string holds a million of them, and
// a megabyte of blank lines; decoding must allocate a small multiple of
// the body, where sizing by raw byte counts would take 24 bytes per '['.
func TestDecodePushRowsArenaBound(t *testing.T) {
	body := []byte(`{"stream":"a","bag":[[1]]}` + "\n" +
		`{"stream":"b","bag":[[1]],"x":"` + strings.Repeat("[,", 1<<19) + `"}` + "\n" +
		strings.Repeat("\n", 1<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	if err := DecodePushRows(body, func(PushRow, []byte) error { n++; return nil }); err != nil || n != 2 {
		t.Fatalf("decoded %d rows, error %v", n, err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(body)) {
		t.Fatalf("decoding a %d-byte body allocated %d bytes", len(body), got)
	}
}

// BenchmarkDecodePushRows decodes one serve-hist push body: 64 rows of
// 1-D bags with 50 points each.
func BenchmarkDecodePushRows(b *testing.B) {
	body := canonicalBody(64, 50)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		if err := DecodePushRows(body, func(PushRow, []byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
