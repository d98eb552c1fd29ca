package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/randx"
	"repro/internal/signature"
)

// EngineScaleOptions sizes the multi-stream engine demonstration.
type EngineScaleOptions struct {
	// Streams is the number of concurrent detector streams (default 64).
	Streams int
	// Steps is the number of bags pushed per stream (default 40).
	Steps int
	// Replicates is the bootstrap size per inspection (default 200).
	Replicates int
}

func (o EngineScaleOptions) withDefaults() EngineScaleOptions {
	if o.Streams <= 0 {
		o.Streams = 64
	}
	if o.Steps <= 0 {
		o.Steps = 40
	}
	if o.Replicates <= 0 {
		o.Replicates = 200
	}
	return o
}

// EngineScaleResult carries the rendered report plus the headline
// numbers for programmatic checks.
type EngineScaleResult struct {
	Report string
	// BagsPerSecBatch and BagsPerSecSequential are the engine throughput
	// with the full worker group vs. one worker.
	BagsPerSecBatch      float64
	BagsPerSecSequential float64
	// Recall is the fraction of streams whose change was detected within
	// the tolerance window.
	Recall float64
	// BitIdentical reports whether the parallel run reproduced the
	// sequential run exactly, stream by stream.
	BitIdentical bool
}

// EngineScale exercises the multi-stream Engine the way the ROADMAP's
// "detector pool / server front-end" item intends: S independent streams
// (each a 1-D Gaussian with a per-stream change point) are multiplexed
// through PushBatch, once with a single worker and once with the full
// worker group. The report shows throughput for both runs, verifies the
// outputs are bit-identical (worker count is a pure throughput knob),
// and scores detection quality across all streams.
func EngineScale(seed int64, opts EngineScaleOptions) (*EngineScaleResult, error) {
	opts = opts.withDefaults()
	tau, tauPrime := 5, 5

	// Per-stream workloads: mean shift 0→3 at a change point staggered
	// across streams (middle third of the horizon).
	ids := make([]string, opts.Streams)
	changes := make(map[string]int, opts.Streams)
	bags := make(map[string][]bag.Bag, opts.Streams)
	for s := range ids {
		ids[s] = fmt.Sprintf("stream-%03d", s)
		change := opts.Steps/3 + s%(opts.Steps/3+1)
		changes[ids[s]] = change
		rng := randx.New(randx.SplitSeed(seed, int64(s)))
		seq := make([]bag.Bag, opts.Steps)
		for ts := range seq {
			mu := 0.0
			if ts >= change {
				mu = 3
			}
			vals := make([]float64, 60)
			for i := range vals {
				vals[i] = rng.Normal(mu, 1)
			}
			seq[ts] = bag.FromScalars(ts, vals)
		}
		bags[ids[s]] = seq
	}

	newEngine := func(workers int) (*core.Engine, error) {
		return core.NewEngine(core.EngineConfig{
			Template: core.Config{
				Tau: tau, TauPrime: tauPrime,
				Statistic: "kl",
				Bootstrap: bootstrap.Config{Replicates: opts.Replicates, Alpha: 0.05},
			},
			Factory: signature.HistogramFactory(-6, 9, 30),
			Seed:    seed,
			Workers: workers,
		})
	}

	run := func(workers int) (map[string][]*core.Point, float64, error) {
		eng, err := newEngine(workers)
		if err != nil {
			return nil, 0, err
		}
		out := make(map[string][]*core.Point, opts.Streams)
		batch := make([]core.StreamBag, opts.Streams)
		start := time.Now()
		for step := 0; step < opts.Steps; step++ {
			for s, id := range ids {
				batch[s] = core.StreamBag{StreamID: id, Bag: bags[id][step]}
			}
			results, err := eng.PushBatch(batch)
			if err != nil {
				return nil, 0, err
			}
			for _, res := range results {
				if res.Point != nil {
					out[res.StreamID] = append(out[res.StreamID], res.Point)
				}
			}
		}
		elapsed := time.Since(start)
		return out, float64(opts.Streams*opts.Steps) / elapsed.Seconds(), nil
	}

	seqPoints, seqRate, err := run(1)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	parPoints, parRate, err := run(workers)
	if err != nil {
		return nil, err
	}

	identical := true
	for _, id := range ids {
		a, b := seqPoints[id], parPoints[id]
		if len(a) != len(b) {
			identical = false
			break
		}
		for i := range a {
			if a[i].T != b[i].T || a[i].Score != b[i].Score || a[i].Interval != b[i].Interval || a[i].Alarm != b[i].Alarm {
				identical = false
				break
			}
		}
	}

	detected := 0
	for _, id := range ids {
		var alarms []int
		for _, p := range parPoints[id] {
			if p.Alarm {
				alarms = append(alarms, p.T)
			}
		}
		if m := eval.Match(alarms, []int{changes[id]}, 2, tauPrime+2); m.TruePositives > 0 {
			detected++
		}
	}
	recall := float64(detected) / float64(opts.Streams)

	var b strings.Builder
	fmt.Fprintf(&b, "Engine scale-out: %d streams x %d bags, tau=%d, tau'=%d, T=%d replicates\n",
		opts.Streams, opts.Steps, tau, tauPrime, opts.Replicates)
	fmt.Fprintf(&b, "  sequential (1 worker):   %10.0f bags/s\n", seqRate)
	fmt.Fprintf(&b, "  batched (%2d workers):    %10.0f bags/s  (%.2fx)\n", workers, parRate, parRate/seqRate)
	fmt.Fprintf(&b, "  bit-identical outputs:   %v\n", identical)
	fmt.Fprintf(&b, "  change detected:         %d/%d streams (recall %.2f)\n", detected, opts.Streams, recall)

	return &EngineScaleResult{
		Report:               b.String(),
		BagsPerSecBatch:      parRate,
		BagsPerSecSequential: seqRate,
		Recall:               recall,
		BitIdentical:         identical,
	}, nil
}
