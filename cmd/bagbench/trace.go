package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Span layers. A push's client span causes the top handler span (the
// router's, or the member's when clients push to a server directly); a
// router span causes one member span per member the batch touches.
const (
	layerClient = "client"
	layerRouter = "router"
	layerServer = "server"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the layer's public entry point.
type span struct {
	Workload string `json:"workload"`
	Phase    string `json:"phase"`
	Trace    string `json:"trace"`
	Layer    string `json:"layer"`
	Member   int    `json:"member"` // member index of a server span, -1 otherwise
	Parent   string `json:"parent"` // layer of the causing span, "" for a client span
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every push span of a traced run in memory. A nil tracer
// records nothing and wraps nothing, which is the untraced run.
type tracer struct {
	workload  string
	hasRouter bool
	base      time.Time
	phase     atomic.Value // string: the phase spans are attributed to

	mu    sync.Mutex
	spans []span
}

func newTracer(w workload) *tracer {
	t := &tracer{workload: w.name, hasRouter: w.members > 0, base: time.Now()}
	t.phase.Store(phaseSetup)
	return t
}

func (t *tracer) setPhase(p string) {
	if t != nil {
		t.phase.Store(p)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(trace, layer string, member int, start, end int64) {
	parent := ""
	switch {
	case layer == layerRouter:
		parent = layerClient
	case layer == layerServer && t.hasRouter:
		parent = layerRouter
	case layer == layerServer:
		parent = layerClient
	}
	s := span{
		Workload: t.workload, Phase: t.phase.Load().(string), Trace: trace,
		Layer: layer, Member: member, Parent: parent, Start: start, End: end,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap times h's push requests as spans of the given layer.
func (t *tracer) wrap(layer string, member int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/push" {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(r.Header.Get(obs.TraceHeader), layer, member, start, t.now())
	})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans appends the spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes are one phase's per-layer durations, one entry per push
// whose client span and top handler span were both recorded.
type layerTimes struct {
	client     []float64 // client-observed, ms
	transport  []float64 // client span minus the top handler span
	routerSelf []float64 // router span minus its slowest member span
	skew       []float64 // slowest minus fastest member span (≥ 2 members)
	members    []float64 // member spans per routed push
	block      []float64 // the member span the top layer waited for: its slowest
	server     []float64 // every member span
	serverSum  float64   // Σ member spans, seconds
	unmatched  int       // client spans without a top handler span
}

// analyze splits one phase's spans into per-layer self times. Self time
// is a span minus the part its child spans cover; a router waits for
// all members in parallel, so the slowest member span is the part that
// blocks it.
func analyze(spans []span, phase string) layerTimes {
	type group struct {
		client, router *span
		members        []*span
	}
	byTrace := make(map[string]*group)
	get := func(id string) *group {
		g, ok := byTrace[id]
		if !ok {
			g = &group{}
			byTrace[id] = g
		}
		return g
	}
	var lt layerTimes
	for i := range spans {
		s := &spans[i]
		if s.Phase != phase {
			continue
		}
		g := get(s.Trace)
		switch s.Layer {
		case layerClient:
			g.client = s
		case layerRouter:
			g.router = s
		case layerServer:
			g.members = append(g.members, s)
			lt.server = append(lt.server, ms(s.dur()))
			lt.serverSum += s.dur().Seconds()
		}
	}
	ids := make([]string, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		g := byTrace[id]
		if g.client == nil {
			continue
		}
		lt.client = append(lt.client, ms(g.client.dur()))
		if len(g.members) == 0 {
			lt.unmatched++
			continue
		}
		slow, fast := g.members[0].dur(), g.members[0].dur()
		for _, m := range g.members[1:] {
			slow, fast = max(slow, m.dur()), min(fast, m.dur())
		}
		top := g.members[0]
		if g.router != nil {
			top = g.router
			lt.routerSelf = append(lt.routerSelf, ms(g.router.dur()-slow))
			lt.members = append(lt.members, float64(len(g.members)))
			if len(g.members) > 1 {
				lt.skew = append(lt.skew, ms(slow-fast))
			}
		}
		lt.transport = append(lt.transport, ms(g.client.dur()-top.dur()))
		lt.block = append(lt.block, ms(slow))
	}
	return lt
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
