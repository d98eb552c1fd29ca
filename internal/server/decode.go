package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/bag"
)

// PushRow is one NDJSON ingest row of POST /v1/push. A row from
// DecodePushRows aliases decoder storage that lives as long as the
// request: its Bag points are capacity-capped views into a flat arena
// shared by the rows of the body. Nothing downstream keeps them — the
// signature builders and the oplog copy what they need before the
// request ends.
type PushRow struct {
	Stream string      `json:"stream"`
	Bag    [][]float64 `json:"bag"`
}

// ReadBody reads a request body of at most limit bytes; a longer body
// fails with a wrapped *http.MaxBytesError. A declared Content-Length
// sizes the buffer, so such a body is read with one allocation.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	size := r.ContentLength
	if size < 0 || size > limit {
		size = 511 // unknown, or about to be refused: grow as io.ReadAll does
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	buf := make([]byte, 0, size+1) // +1: the read that sees EOF needs room
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading body: %w", err)
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// DecodePushRows is the NDJSON push-row decoder the server and the
// router share. Blank lines are skipped; any other line must parse, name
// a stream and carry a non-empty valid bag, or decoding stops with a
// "line N: ..." error. fn sees each accepted row with its trimmed line,
// a view into body; an error from fn stops decoding and is returned as
// is.
//
// A line in the documented form {"stream":"<id>","bag":[[…],…]} — a
// printable-ASCII id without escapes, JSON numbers, any JSON whitespace
// between tokens — is decoded by a scanner that calls strconv.ParseFloat
// on each number as encoding/json does, so the values are bit-identical.
// Its rows' points are carved from arenas sized once per call (see
// PushRow and rowScanner.scan). Any other line goes to encoding/json, so
// every verdict and error message is the one json.Unmarshal and
// bag.Validate give.
func DecodePushRows(body []byte, fn func(row PushRow, line []byte) error) error {
	var sc rowScanner
	var row PushRow // reused: decoding into it escapes, so one allocation per body
	for line := 1; len(body) > 0; line++ {
		rest := body
		text := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			text, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		text = bytes.TrimSpace(text)
		if len(text) == 0 {
			continue
		}
		var ok bool
		if row, ok = sc.scan(text, rest); !ok {
			row = PushRow{}
			if err := json.Unmarshal(text, &row); err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
		}
		if row.Stream == "" {
			return fmt.Errorf("line %d: missing stream id", line)
		}
		if len(row.Bag) == 0 {
			return fmt.Errorf("line %d: empty bag", line)
		}
		if err := (bag.Bag{Points: row.Bag}).Validate(); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if err := fn(row, text); err != nil {
			return err
		}
	}
	return nil
}

// rowScanner decodes push rows of the documented form. floats is the
// coordinate arena and points the arena of point headers; each point
// and each bag is a capacity-capped view (a[i:j:j]), so an append to
// one can never overwrite its neighbour.
type rowScanner struct {
	floats []float64
	points [][]float64
}

// scan decodes line, or reports false with the arenas as they were. rest
// is the body from line on. The first row the scanner meets sizes the
// arenas: a counting pass over it validates the row and gives its exact
// numbers and points, and the arenas take that much for each of the
// body's remaining lines — a body of like-sized rows then fills them
// without growing. The row count is bounded by twice what rest's bytes
// hold at this row's length, so blank lines, strings and lines the
// scanner refuses cannot inflate the arenas past what a valid body of
// this size could need. A later row that does not fit grows them by
// append; rows already decoded keep their views of the old array.
func (sc *rowScanner) scan(line, rest []byte) (PushRow, bool) {
	id, i, ok := rowPrefix(line)
	if !ok {
		return PushRow{}, false
	}
	if sc.floats == nil {
		nf, np, ok := sc.bag(line, i, false)
		if !ok {
			return PushRow{}, false
		}
		rows := min(bytes.Count(rest, []byte{'\n'})+1, 2*len(rest)/len(line))
		sc.floats = make([]float64, 0, nf*rows)
		sc.points = make([][]float64, 0, np*rows)
	}
	f0, p0 := len(sc.floats), len(sc.points)
	if _, _, ok := sc.bag(line, i, true); !ok {
		sc.floats, sc.points = sc.floats[:f0], sc.points[:p0]
		return PushRow{}, false
	}
	p1 := len(sc.points)
	return PushRow{Stream: string(id), Bag: sc.points[p0:p1:p1]}, true
}

// rowPrefix reads `{"stream":"<id>","bag":[` and returns the id and the
// index after the bag's opening bracket.
func rowPrefix(s []byte) (id []byte, i int, ok bool) {
	i = expect(s, 0, `{`)
	i = expect(s, i, `"stream"`)
	i = expect(s, i, `:`)
	i = expect(s, i, `"`)
	if i < 0 {
		return nil, 0, false
	}
	start := i
	for ; i < len(s) && s[i] != '"'; i++ {
		if s[i] < 0x20 || s[i] > 0x7e || s[i] == '\\' {
			return nil, 0, false
		}
	}
	if i == len(s) {
		return nil, 0, false
	}
	id = s[start:i]
	i = expect(s, i+1, `,`)
	i = expect(s, i, `"bag"`)
	i = expect(s, i, `:`)
	i = expect(s, i, `[`)
	return id, i, i >= 0
}

// bag walks the points of a bag from s[i], just after its opening
// bracket, through the row's closing brace and the end of the line, and
// counts its numbers and points. With fill it also parses each number
// into the arena and carves each point from it; a number out of float64
// range fails it there, and encoding/json words that error.
func (sc *rowScanner) bag(s []byte, i int, fill bool) (nf, np int, ok bool) {
	for {
		if i = expect(s, i, `[`); i < 0 {
			return 0, 0, false
		}
		from := len(sc.floats)
		for {
			i = skipSpace(s, i)
			j := numberEnd(s, i)
			if j < 0 {
				return 0, 0, false
			}
			if fill {
				v, err := strconv.ParseFloat(string(s[i:j]), 64)
				if err != nil {
					return 0, 0, false
				}
				sc.floats = append(sc.floats, v)
			}
			nf++
			if i = skipSpace(s, j); i == len(s) {
				return 0, 0, false
			}
			i++
			if s[i-1] == ']' {
				break
			}
			if s[i-1] != ',' {
				return 0, 0, false
			}
		}
		if fill {
			to := len(sc.floats)
			sc.points = append(sc.points, sc.floats[from:to:to])
		}
		np++
		if i = skipSpace(s, i); i == len(s) {
			return 0, 0, false
		}
		i++
		if s[i-1] == ']' {
			break
		}
		if s[i-1] != ',' {
			return 0, 0, false
		}
	}
	if i = expect(s, i, `}`); i < 0 || skipSpace(s, i) != len(s) {
		return 0, 0, false
	}
	return nf, np, true
}

// expect skips JSON whitespace from s[i] and then the token tok, and
// returns the index after it, or -1 when tok is not next (or i is -1).
func expect(s []byte, i int, tok string) int {
	if i < 0 {
		return -1
	}
	i = skipSpace(s, i)
	if len(s)-i < len(tok) || string(s[i:i+len(tok)]) != tok {
		return -1
	}
	return i + len(tok)
}

func skipSpace(s []byte, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

// numberEnd returns the end of the JSON number starting at s[i], or -1.
// strconv.ParseFloat alone would also take "+1", ".5", "01", "inf",
// "0x1p3" and "1_0", none of which JSON allows.
func numberEnd(s []byte, i int) int {
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digitsEnd(s, i)
	default:
		return -1
	}
	if i < len(s) && s[i] == '.' {
		j := digitsEnd(s, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digitsEnd(s, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digitsEnd(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}
