package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/signature"
)

// stdSeconds is the -seconds value at which each workload sends exactly
// the batch counts in its table row; other values scale both phase
// counts linearly. Rates never change with it.
const stdSeconds = 15

// A full run builds and warms the system at least minSetups times and
// until setupBudget of set-up has been timed, at most maxSetups times.
// setup_s is the median; the last build is the one measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

// workload is one traffic mix. Engine seeds are part of the fixed
// configuration; -seed drives only the generated bags and stream choice.
type workload struct {
	name string
	why  string

	streams     int
	zipf        float64 // Zipf exponent of the stream popularity
	batch       int     // rows per push batch
	dim, points int     // bag shape
	kmeansK     int     // 0 selects the 1-D histogram detector
	tau         int     // τ = τ′
	replicates  int     // bootstrap T
	engineSeed  int64

	members     int  // 0: clients push to one server; 2: a router fronts two members
	durable     bool // oplog (fsync before every 200) plus a bounded detector pool
	maxResident int

	capBatches int     // closed-loop batches at stdSeconds
	latBatches int     // open-loop batches at stdSeconds
	latRate    float64 // open-loop batches per second
	verifyAll  bool    // check every stream, not only those with index ≡ 0 (mod 8)
}

var workloads = []workload{
	{
		name:    "serve-hist",
		why:     "1-D histogram bags, closed-form EMD, T=200: bootstrap and engine fan-out dominate; predicts no change for solver work",
		streams: 256, zipf: 0.8, batch: 64, dim: 1, points: 50,
		tau: 4, replicates: 200, engineSeed: 11,
		capBatches: 2000, latBatches: 1200, latRate: 150,
	},
	{
		name:    "serve-kmeans",
		why:     "3-D bags, k-means K=16 signatures, simplex EMD with a cold cost cache: the solver and signature workload",
		streams: 64, zipf: 0.8, batch: 8, dim: 3, points: 120, kmeansK: 16,
		tau: 4, replicates: 100, engineSeed: 12,
		capBatches: 2400, latBatches: 1200, latRate: 120,
	},
	{
		name:    "serve-durable",
		why:     "oplog fsync before every ack and 1024 streams paged through a 256-stream pool: the state-paging and durability workload",
		streams: 1024, zipf: 1.1, batch: 8, dim: 1, points: 50,
		tau: 3, replicates: 50, engineSeed: 13,
		durable: true, maxResident: 256, verifyAll: true,
		capBatches: 3000, latBatches: 1200, latRate: 150,
	},
	{
		name:    "route-fleet",
		why:     "serve-hist traffic through a router in front of two members: isolates router decode, fan-out, merge and the extra hop",
		streams: 256, zipf: 0.8, batch: 64, dim: 1, points: 50,
		tau: 4, replicates: 200, engineSeed: 11, members: 2,
		capBatches: 1500, latBatches: 1200, latRate: 90,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to a shape that runs in about a second: an
// eighth of the streams and a handful of batches. It exercises every
// code path, including paging and the restart, but measures nothing.
func (w workload) smoke() workload {
	w.streams /= 8
	w.maxResident /= 8
	w.capBatches, w.latBatches, w.latRate = 24, 24, 400
	return w
}

// scaled returns the phase batch counts for a run of the given length.
func (w workload) scaled(seconds float64) (capBatches, latBatches int) {
	scale := func(n int) int {
		return max(2, int(float64(n)*seconds/stdSeconds+0.5))
	}
	return scale(w.capBatches), scale(w.latBatches)
}

// warmBags is how many bags every stream receives during set-up: enough
// to fill the window and score, 2τ+1 with τ = τ′.
func (w workload) warmBags() int { return 2*w.tau + 1 }

// engineConfig is the detector engine every member runs, and the one the
// reference replay uses.
func (w workload) engineConfig() core.EngineConfig {
	cfg := core.EngineConfig{
		Template: core.Config{
			Tau:       w.tau,
			TauPrime:  w.tau,
			Statistic: "kl",
			Bootstrap: bootstrap.Config{Replicates: w.replicates},
		},
		Seed: w.engineSeed,
	}
	if w.kmeansK > 0 {
		cfg.Factory = signature.KMeansFactory(w.kmeansK, cluster.Config{})
	} else {
		cfg.Factory = signature.HistogramFactory(-6, 9, 32)
	}
	return cfg
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bagbench: serving %s: %v\n", l.url, err)
		}
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// member is one detector server: engine, server.Server and its listener.
type member struct {
	eng *core.Engine
	srv *server.Server
	ln  *listener
}

// system is the server side of a workload: the members, and the router
// in front of them when the workload has one.
type system struct {
	w       workload
	tr      *tracer
	dir     string // holds each member's oplog directory (durable workloads)
	members []*member
	front   *listener // the router's listener; nil without a router
}

// startSystem constructs the workload's members (and router), each on
// its own loopback listener.
func startSystem(w workload, dir string, tr *tracer) (*system, error) {
	s := &system{w: w, tr: tr, dir: dir}
	n := max(1, w.members)
	for i := 0; i < n; i++ {
		m, err := s.startMember(i)
		if err != nil {
			s.close()
			return nil, err
		}
		s.members = append(s.members, m)
	}
	if w.members == 0 {
		return s, nil
	}
	urls := make([]string, n)
	for i, m := range s.members {
		urls[i] = m.ln.url
	}
	rt, err := router.New(router.Config{Members: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	if s.front, err = listen(tr.wrap(layerRouter, -1, rt)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) startMember(i int) (*member, error) {
	eng, err := core.NewEngine(s.w.engineConfig())
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Engine: eng}
	if s.w.durable {
		cfg.OplogDir = filepath.Join(s.dir, fmt.Sprintf("member%d", i))
		cfg.MaxResident = s.w.maxResident
	}
	srv, err := server.New(cfg)
	if err != nil {
		eng.Shutdown()
		return nil, err
	}
	ln, err := listen(s.tr.wrap(layerServer, i, srv))
	if err != nil {
		srv.Close()
		eng.Shutdown()
		return nil, err
	}
	return &member{eng: eng, srv: srv, ln: ln}, nil
}

// restart stops member 0 without a checkpoint and starts a fresh server
// on the same oplog directory, which replays the log before it serves:
// the time to ready after a crash.
func (s *system) restart() error {
	s.members[0].stop()
	m, err := s.startMember(0)
	if err != nil {
		return fmt.Errorf("restarting member: %w", err)
	}
	s.members[0] = m
	return nil
}

// stop closes the member's listener, server and engine. Every
// acknowledged push was fsynced before its answer, so a failed oplog
// close loses nothing; the check after timing would show it if it did.
func (m *member) stop() {
	m.ln.close()
	m.srv.Close()
	m.eng.Shutdown()
}

func (s *system) close() {
	if s.front != nil {
		s.front.close()
	}
	for _, m := range s.members {
		m.stop()
	}
}

// pushURL is where the load connections send batches.
func (s *system) pushURL() string { return s.frontURL() + "/v1/push" }

func (s *system) frontURL() string {
	if s.front != nil {
		return s.front.url
	}
	return s.members[0].ln.url
}
