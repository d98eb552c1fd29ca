package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// row is one scored or pending response row in comparable form: absent
// fields read as NaN (floats) or -1 (t).
type row struct {
	bagT, t          int
	score, lo, up, k float64
	pending, alarm   bool
	err              string
}

// wireRow is the server's NDJSON result row.
type wireRow struct {
	BagT    int      `json:"bag_t"`
	Pending bool     `json:"pending"`
	T       *int     `json:"t"`
	Score   *float64 `json:"score"`
	Lo      *float64 `json:"lo"`
	Up      *float64 `json:"up"`
	Kappa   *float64 `json:"kappa"`
	Alarm   bool     `json:"alarm"`
	Error   string   `json:"error"`
}

func parseRow(line []byte) row {
	var w wireRow
	if err := json.Unmarshal(line, &w); err != nil {
		return row{bagT: -1, t: -1, err: fmt.Sprintf("unparsable result row %q: %v", line, err)}
	}
	r := row{bagT: w.BagT, t: -1, pending: w.Pending, alarm: w.Alarm, err: w.Error}
	if w.T != nil {
		r.t = *w.T
	}
	f := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	r.score, r.lo, r.up, r.k = f(w.Score), f(w.Lo), f(w.Up), f(w.Kappa)
	return r
}

// conn is one client connection. It sends its batches strictly one at a
// time, so per-stream order on the wire is the order rows were built.
type conn struct {
	idx    int
	gen    *connGen
	client *http.Client
	tr     *tracer
	seq    int

	body bytes.Buffer
	resp bytes.Buffer
	rows []*streamState // the streams of the current body's rows

	attempted, failed int // rows
}

var errorKey = []byte(`"error"`)

func newConn(idx int, gen *connGen, tr *tracer) *conn {
	return &conn{
		idx: idx,
		gen: gen,
		tr:  tr,
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

// push sends the current body and checks one result row per input row.
// Rows of a non-200 answer and error rows count as failed; verified
// streams keep every result row for the reference comparison.
func (c *conn) push(url string) {
	c.attempted += len(c.rows)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(c.body.Bytes()))
	if err != nil {
		c.fail(err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	var trace string
	var start int64
	if c.tr != nil {
		c.seq++
		trace = fmt.Sprintf("c%d-%d", c.idx, c.seq)
		req.Header.Set(obs.TraceHeader, trace)
		start = c.tr.now()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.record(trace, layerClient, -1, start, c.tr.now())
	}
	if err != nil {
		c.fail(err.Error())
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.fail(fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.resp.Bytes())))
		return
	}
	rest := c.resp.Bytes()
	for i, st := range c.rows {
		line, tail, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			c.failRows(c.rows[i:], fmt.Sprintf("%d result rows for %d pushed", i, len(c.rows)))
			return
		}
		rest = tail
		if bytes.Contains(line, errorKey) {
			c.failed++
		}
		if st.verify {
			st.rows = append(st.rows, parseRow(line))
		}
	}
}

func (c *conn) fail(msg string) { c.failRows(c.rows, msg) }

// failRows marks rows as failed; a verified stream records an error row
// so its result rows stay aligned with the bags it was sent.
func (c *conn) failRows(rows []*streamState, msg string) {
	c.failed += len(rows)
	for _, st := range rows {
		if st.verify {
			st.rows = append(st.rows, row{bagT: -1, t: -1, err: msg})
		}
	}
}

// warm sends every stream of the connection's partition its set-up bags.
func (c *conn) warm(url string, batch, bags int) {
	order := c.gen.warmOrder(bags)
	for lo := 0; lo < len(order); lo += batch {
		c.rows = append(c.rows[:0], order[lo:min(lo+batch, len(order))]...)
		c.gen.listBatch(&c.body, c.rows)
		c.push(url)
	}
}

// both runs f on each connection concurrently and waits for both.
func both(conns [2]*conn, f func(c *conn)) {
	var wg sync.WaitGroup
	wg.Add(len(conns))
	for _, c := range conns {
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// capacityChunks is how many equal slices of the closed-loop phase get
// their own rate and CPU figures. On a shared virtual machine other
// tenants slow every instruction in bursts lasting seconds; the fastest
// quarter of the slices measures the system, the slowest its neighbours,
// so the phase reports the mean of the best quarter.
const capacityChunks = 20

// capacityResult accumulates the closed-loop slices of a run.
type capacityResult struct {
	batches, bags int
	wall          time.Duration
	rates, cpus   []float64 // per chunk: bags/s and CPU µs per bag
}

// runCapacity is one closed-loop slice: each connection sends half of n
// batches, the next as soon as the previous one answered. The slice is
// cut into capacityChunks/measureRounds chunks by completed batches.
func runCapacity(conns [2]*conn, url string, n, rows int, res *capacityResult) {
	chunks := max(1, min(capacityChunks/measureRounds, n))
	chunkBatches := n / chunks
	type mark struct {
		at  time.Time
		cpu time.Duration
	}
	marks := make([]mark, chunks+1)
	var done atomic.Int64
	marks[0] = mark{time.Now(), cpuTime()}
	both(conns, func(c *conn) {
		for b := c.idx; b < n; b += 2 {
			c.rows = c.gen.zipfBatch(&c.body, c.rows, rows)
			c.push(url)
			k := int(done.Add(1))
			if k%chunkBatches == 0 && k/chunkBatches <= chunks {
				marks[k/chunkBatches] = mark{time.Now(), cpuTime()}
			}
		}
	})
	res.wall += time.Since(marks[0].at)
	res.batches += n
	res.bags += n * rows
	chunkBags := float64(chunkBatches * rows)
	for i := 1; i < len(marks); i++ {
		res.rates = append(res.rates, chunkBags/marks[i].at.Sub(marks[i-1].at).Seconds())
		res.cpus = append(res.cpus, float64(marks[i].cpu-marks[i-1].cpu)/1e3/chunkBags)
	}
}

// bestQuarter is the mean of the best quarter of xs, at least one value:
// the largest when higher is better, else the smallest.
func bestQuarter(xs []float64, higher bool) float64 {
	sort.Float64s(xs)
	k := max(1, len(xs)/4)
	if higher {
		return mean(xs[len(xs)-k:])
	}
	return mean(xs[:k])
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencyResult accumulates the open-loop slices of a run, in ms.
type latencyResult struct {
	lat, late []float64
	wall      time.Duration
}

// runLatency is one open-loop slice: request k is due at k/rate after
// the slice starts and goes out on connection k mod 2. Its latency runs
// from the due time, so a stall also charges the requests queued behind
// it; late is how far behind schedule the request was actually sent.
func runLatency(conns [2]*conn, url string, n, rows int, rate float64, res *latencyResult) {
	lat := make([]float64, n)
	late := make([]float64, n)
	start := time.Now()
	both(conns, func(c *conn) {
		for k := c.idx; k < n; k += 2 {
			c.rows = c.gen.zipfBatch(&c.body, c.rows, rows)
			due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			sent := time.Now()
			c.push(url)
			lat[k] = ms(time.Since(due))
			late[k] = ms(max(0, sent.Sub(due)))
		}
	})
	res.wall += time.Since(start)
	res.lat = append(res.lat, lat...)
	res.late = append(res.late, late...)
}

// getJSON fetches url into v with a client of its own, so scrapes never
// use the two load connections.
func getJSON(url string, v any) error {
	body, err := get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

var scrapeClient = &http.Client{Timeout: time.Minute}

func get(url string) ([]byte, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}
