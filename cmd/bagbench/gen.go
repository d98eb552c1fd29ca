package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
)

// poolPerRegime is the number of distinct bags per data regime. Request
// bodies are concatenations of these pre-serialized bags, so a run holds
// the pool instead of every body it sends.
const poolPerRegime = 256

// pool holds the pre-serialized bags of both regimes: index i < 256 is
// regime 0 (the stationary distribution), the rest regime 1 (shifted and
// wider). Streams alternate regimes in segments, so detectors alarm.
type pool struct {
	json [][]byte      // the bag as it appears in a push row, e.g. [[0.25],[-1.5]]
	pts  [][][]float64 // the same bag as the server parses it
}

// regimeMeans are the per-regime means; regime 1 also scales the spread.
var regimeMeans = [2][3]float64{{0, 0, 0}, {1.5, 0, -1}}

func newPool(w workload, seed int64) *pool {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x706f6f6c))
	p := &pool{}
	for regime := 0; regime < 2; regime++ {
		sd := 1 + 0.3*float64(regime)
		for i := 0; i < poolPerRegime; i++ {
			pts := make([][]float64, w.points)
			buf := []byte{'['}
			for k := range pts {
				pt := make([]float64, w.dim)
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, '[')
				for d := range pt {
					// Four decimals keep bodies short; the shortest decimal
					// form parses back to exactly these bits.
					pt[d] = math.Round((regimeMeans[regime][d]+sd*rng.NormFloat64())*1e4) / 1e4
					if d > 0 {
						buf = append(buf, ',')
					}
					buf = strconv.AppendFloat(buf, pt[d], 'g', -1, 64)
				}
				buf = append(buf, ']')
				pts[k] = pt
			}
			p.json = append(p.json, append(buf, ']'))
			p.pts = append(p.pts, pts)
		}
	}
	return p
}

// streamState is the generator's view of one stream. A stream belongs to
// exactly one connection, which sends its rows in FIFO order, so the
// bags it received and the rows it got back are known exactly.
type streamState struct {
	id     string
	index  int
	prefix []byte // the push row up to the bag: {"stream":"s0001","bag":
	seg    int    // regime segment length in bags
	sent   int    // bags sent
	verify bool
	refs   []uint16 // pool index of every bag sent (verified streams only)
	rows   []row    // response row of every bag sent (verified streams only)
}

// connGen produces one connection's batches: Zipf-distributed rows over
// the connection's partition of the streams.
type connGen struct {
	pool    *pool
	rng     *rand.Rand
	streams []*streamState
	cdf     []float64
}

// newGens splits the workload's streams into two disjoint partitions,
// even and odd index, one per connection. Stream i has Zipf weight
// (i+1)^-s, so stream 0 is the hottest.
func newGens(w workload, seed int64, p *pool) [2]*connGen {
	var gens [2]*connGen
	for c := range gens {
		gens[c] = &connGen{pool: p, rng: rand.New(rand.NewPCG(uint64(seed), uint64(c)+1))}
	}
	for i := 0; i < w.streams; i++ {
		id := fmt.Sprintf("s%04d", i)
		st := &streamState{
			id:     id,
			index:  i,
			prefix: []byte(`{"stream":"` + id + `","bag":`),
			seg:    16 + rand.New(rand.NewPCG(uint64(seed), uint64(i)+0x5e9)).IntN(48),
			verify: w.verifyAll || i%8 == 0,
		}
		g := gens[i%2]
		g.streams = append(g.streams, st)
		total := math.Pow(float64(i+1), -w.zipf)
		if n := len(g.cdf); n > 0 {
			total += g.cdf[n-1]
		}
		g.cdf = append(g.cdf, total)
	}
	for _, g := range gens {
		last := g.cdf[len(g.cdf)-1]
		for i := range g.cdf {
			g.cdf[i] /= last
		}
	}
	return gens
}

// appendRow appends stream st's next bag to body as one NDJSON row.
func (g *connGen) appendRow(body *bytes.Buffer, st *streamState) {
	regime := (st.sent / st.seg) % 2
	ref := regime*poolPerRegime + g.rng.IntN(poolPerRegime)
	body.Write(st.prefix)
	body.Write(g.pool.json[ref])
	body.WriteString("}\n")
	if st.verify {
		st.refs = append(st.refs, uint16(ref))
	}
	st.sent++
}

// zipfBatch fills body with n rows drawn by stream popularity and
// returns the rows' streams in order.
func (g *connGen) zipfBatch(body *bytes.Buffer, rows []*streamState, n int) []*streamState {
	body.Reset()
	rows = rows[:0]
	for k := 0; k < n; k++ {
		st := g.streams[sort.SearchFloat64s(g.cdf, g.rng.Float64())]
		g.appendRow(body, st)
		rows = append(rows, st)
	}
	return rows
}

// warmOrder lists the rows of set-up stream-major: each stream's bags
// back to back, so a bounded pool pages every stream in once.
func (g *connGen) warmOrder(bags int) []*streamState {
	order := make([]*streamState, 0, len(g.streams)*bags)
	for _, st := range g.streams {
		for k := 0; k < bags; k++ {
			order = append(order, st)
		}
	}
	return order
}

// listBatch fills body with one row for each stream of list, in order.
func (g *connGen) listBatch(body *bytes.Buffer, list []*streamState) {
	body.Reset()
	for _, st := range list {
		g.appendRow(body, st)
	}
}
