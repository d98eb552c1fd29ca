package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bag"
	"repro/internal/core"
)

// checkPushCounts asserts that /v1/streams reports, for every listed
// stream, exactly the bags the generator sent it. A bounded pool lists
// only resident streams, so the listed and spilled streams must together
// account for every stream sent to.
func checkPushCounts(s *system, gens [2]*connGen) error {
	var listing struct {
		Streams []struct {
			ID     string `json:"id"`
			Pushed int    `json:"pushed"`
		} `json:"streams"`
	}
	if err := getJSON(s.frontURL()+"/v1/streams", &listing); err != nil {
		return err
	}
	sent := make(map[string]int)
	for _, g := range gens {
		for _, st := range g.streams {
			sent[st.id] = st.sent
		}
	}
	for _, ls := range listing.Streams {
		want, ok := sent[ls.ID]
		if !ok {
			return fmt.Errorf("/v1/streams lists unknown stream %q", ls.ID)
		}
		if ls.Pushed != want {
			return fmt.Errorf("/v1/streams: stream %s pushed=%d, sent %d", ls.ID, ls.Pushed, want)
		}
	}
	listed := len(listing.Streams)
	if s.w.durable {
		sc, err := scrapeMembers(s)
		if err != nil {
			return err
		}
		listed += int(sc.sum("bagcpd_pool_spilled"))
	}
	if listed != len(sent) {
		return fmt.Errorf("/v1/streams accounts for %d streams, %d were sent to", listed, len(sent))
	}
	return nil
}

// checkReference replays every verified stream's exact bag sequence
// through a plain core.Engine with the workload's configuration and
// compares each result row bit for bit. tamper, when set, corrupts the
// reference rows first; tests use it to prove a difference is caught.
// It returns the verified stream and row counts, and the first differing
// row (lowest stream index) as the error.
func checkReference(w workload, p *pool, gens [2]*connGen, tamper func(stream string, t int, r *row)) (streams, rows int, err error) {
	eng, err := core.NewEngine(w.engineConfig())
	if err != nil {
		return 0, 0, err
	}
	defer eng.Shutdown()
	var todo []*streamState
	for _, g := range gens {
		for _, st := range g.streams {
			if st.verify && st.sent > 0 {
				todo = append(todo, st)
				rows += len(st.refs)
			}
		}
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].index < todo[j].index })
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(todo); i = int(next.Add(1)) - 1 {
				errs[i] = replayStream(eng, p, todo[i], tamper)
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return len(todo), rows, e
		}
	}
	return len(todo), rows, nil
}

func replayStream(eng *core.Engine, p *pool, st *streamState, tamper func(string, int, *row)) error {
	if len(st.rows) != len(st.refs) {
		return fmt.Errorf("stream %s: %d result rows for %d bags sent", st.id, len(st.rows), len(st.refs))
	}
	ref, err := eng.Open(st.id)
	if err != nil {
		return err
	}
	for t, idx := range st.refs {
		pt, err := ref.Push(bag.Bag{T: t, Points: p.pts[idx]})
		if err != nil {
			return fmt.Errorf("stream %s: reference push %d: %w", st.id, t, err)
		}
		want := pointRow(t, pt)
		if tamper != nil {
			tamper(st.id, t, &want)
		}
		if got := st.rows[t]; !sameRow(got, want) {
			return fmt.Errorf("stream %s bag %d differs from the reference engine:\n  served:    %s\n  reference: %s", st.id, t, got, want)
		}
	}
	return nil
}

// pointRow is the row the server encodes for bag t's result p.
func pointRow(t int, p *core.Point) row {
	r := row{bagT: t, t: -1, score: math.NaN(), lo: math.NaN(), up: math.NaN(), k: math.NaN()}
	if p == nil {
		r.pending = true
		return r
	}
	r.t, r.score, r.lo, r.up, r.k, r.alarm = p.T, p.Score, p.Interval.Lo, p.Interval.Up, p.Kappa, p.Alarm
	return r
}

func sameRow(a, b row) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.err == b.err && a.bagT == b.bagT && a.t == b.t && a.pending == b.pending && a.alarm == b.alarm &&
		same(a.score, b.score) && same(a.lo, b.lo) && same(a.up, b.up) && same(a.k, b.k)
}

func (r row) String() string {
	if r.err != "" {
		return fmt.Sprintf("bag_t=%d error=%q", r.bagT, r.err)
	}
	if r.pending {
		return fmt.Sprintf("bag_t=%d pending", r.bagT)
	}
	return fmt.Sprintf("bag_t=%d t=%d score=%v lo=%v up=%v kappa=%v alarm=%v", r.bagT, r.t, r.score, r.lo, r.up, r.k, r.alarm)
}
