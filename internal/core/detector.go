// Package core implements the paper's change-point detector for
// sequences of bags-of-data. It wires together the pipeline of §3-§4:
//
//	bag → signature (quantization)            internal/signature
//	    → pairwise EMD in a metric space      internal/emd
//	    → change-point score (Eq. 16/17)      internal/infoest
//	    → Bayesian-bootstrap interval (Eq.19) internal/bootstrap
//	    → adaptive alarm κ_t > 0 (Eq. 18/20)
//
// The detector is a streaming structure: bags are Pushed one at a time,
// a rolling window of the last τ+τ′ signatures is kept, and the log-EMD
// matrix over the window is updated incrementally — each new bag costs
// τ+τ′−1 EMD evaluations, after which the score and its entire bootstrap
// interval are computed without touching the distances again.
package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/emd"
	"repro/internal/infoest"
	"repro/internal/obs"
	"repro/internal/signature"
)

// Weighting selects the base weights γ of the window signatures.
type Weighting int

const (
	// WeightUniform gives every signature weight 1/τ (resp. 1/τ′).
	WeightUniform Weighting = iota
	// WeightDiscounted applies the hyperbolic time discounting of
	// Eq. 15: weight ∝ 1/|t−i|, favouring signatures near the
	// inspection point.
	WeightDiscounted
)

// Config parameterizes a Detector.
type Config struct {
	// Tau is the reference window length τ (number of bags before the
	// inspection point). Required, >= 1.
	Tau int
	// TauPrime is the test window length τ′ (number of bags from the
	// inspection point onward). Required, >= 1 (>= 2 for "lr").
	TauPrime int
	// Statistic selects the change-point score by registry name ("kl",
	// "lr", "clr", or any name passed to RegisterStatistic). Empty means
	// "kl", the symmetrized-KL score of Eq. 17. The resolved NAME — see
	// StatisticName — is what joins the engine snapshot fingerprint.
	Statistic string
	// Weighting selects the base weights (default WeightUniform, which
	// is what the paper uses in all of §5).
	Weighting Weighting
	// Builder converts bags into signatures. Required.
	Builder signature.Builder
	// Ground is the EMD ground distance; nil selects Euclidean with the
	// exact 1-D fast path.
	Ground emd.Ground
	// Bootstrap configures the confidence intervals (T replicates and
	// significance level α). The replicates run serially on the pushing
	// goroutine, with no per-inspection goroutines or allocations; the
	// shard streams are seeded from Seed.
	Bootstrap bootstrap.Config
	// LogFloor clamps distances before taking logs; 0 selects
	// infoest.DefaultFloor.
	LogFloor float64
	// RawMass keeps the raw cluster counts as signature masses, enabling
	// the partial-matching EMD between bags of different sizes. The
	// default (false) normalizes each signature to unit mass, which makes
	// EMD a proper metric between the bag distributions and is the
	// behaviour used for all reproduced experiments.
	RawMass bool
	// Seed drives the bootstrap resampling (and nothing else).
	Seed int64
}

// StatisticName resolves which registered statistic the config selects:
// Statistic when set, otherwise "kl". The result is the stable identity
// that joins the engine snapshot fingerprint.
func (c Config) StatisticName() string {
	if c.Statistic != "" {
		return c.Statistic
	}
	return "kl"
}

// statistic resolves the config's Statistic selection against the
// registry, with the same error texts validateCommon promises.
func (c Config) statistic() (Statistic, error) {
	name := c.StatisticName()
	stat, ok := LookupStatistic(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown statistic %q (registered: %s)", name, strings.Join(StatisticNames(), ", "))
	}
	return stat, nil
}

// validateCommon checks every Config field except Builder. The Engine
// validates its per-stream template with it at construction, before any
// stream (and hence any factory-built Builder) exists.
func (c Config) validateCommon() error {
	if c.Tau < 1 {
		return fmt.Errorf("core: Tau must be >= 1, got %d", c.Tau)
	}
	if c.TauPrime < 1 {
		return fmt.Errorf("core: TauPrime must be >= 1, got %d", c.TauPrime)
	}
	if err := c.Bootstrap.Validate(); err != nil {
		return err
	}
	stat, err := c.statistic()
	if err != nil {
		return err
	}
	return stat.Validate(c)
}

func (c Config) validate() error {
	if err := c.validateCommon(); err != nil {
		return err
	}
	if c.Builder == nil {
		return fmt.Errorf("core: Builder is required")
	}
	return nil
}

// Point is the detector output for one inspection time.
type Point struct {
	// T is the inspection time: the index of the first test bag.
	T int
	// Score is the change-point score at the base weights.
	Score float64
	// Interval is the 100(1−α)% Bayesian-bootstrap confidence interval
	// of the score.
	Interval bootstrap.Interval
	// Kappa is κ_t = ξ_lo(t) − ξ_up(t−τ′); NaN while the earlier
	// interval is not yet available.
	Kappa float64
	// Alarm reports κ_t > 0: a significant change at time T.
	Alarm bool
}

// Detector is the streaming change-point detector. Create with New, feed
// with Push. A Detector is not safe for concurrent use.
type Detector struct {
	cfg     Config
	gRef    []float64 // base weights θ for the reference window
	gTest   []float64 // base weights θ for the test window
	window  []signature.Signature
	logD    [][]float64                // rolling (τ+τ′)² log-EMD matrix, time order
	count   int                        // bags pushed so far
	history map[int]bootstrap.Interval // interval per inspection time

	solver  *emd.Solver          // reusable EMD workspace (zero-alloc warm path)
	est     *bootstrap.Estimator // reusable bootstrap workspace
	win     infoest.Window       // current inspection window, rebuilt per inspect
	stat    Statistic            // resolved statistic (registry lookup at New)
	prep    BagPreprocessor      // stat's bag transform, nil for most statistics
	scoreFn bootstrap.ScoreFunc  // stat's closure over &win, built once
	spare   []float64            // recycled log-distance row from the last slide
	rowPool [][]float64          // rows salvaged by Reset, reused while refilling

	// obs is the instrumentation seam: nil (the default) means every
	// stage boundary in Push costs exactly one nil-check and nothing is
	// recorded; when set, Push times each pipeline stage and accumulates
	// the solver's per-solve counters. Never affects output.
	obs      obs.StageObserver
	stageCum [obs.NumStages]float64 // cumulative seconds per stage (introspection)
	stageCnt [obs.NumStages]uint64  // stage executions (introspection)
	last     Point                  // most recent inspection Point
	hasLast  bool
}

// New validates cfg and returns a ready Detector.
func New(cfg Config) (*Detector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Detector{
		cfg:     cfg,
		history: make(map[int]bootstrap.Interval),
		solver:  emd.NewSolver(solverOptions(cfg.Builder)...),
		// Persistent shard streams seeded from Config.Seed: the detector
		// pays no per-push reseeding cost and its output is a deterministic
		// function of Seed and the pushed sequence.
		est: bootstrap.NewSeededEstimator(cfg.Seed),
	}
	// validate() already resolved the statistic; the second lookup here
	// cannot fail. The closure binds &d.win, which interval() rebuilds in
	// place before every inspection.
	d.stat, _ = cfg.statistic()
	d.prep, _ = d.stat.(BagPreprocessor)
	d.scoreFn = d.stat.Bind(&d.win)
	switch cfg.Weighting {
	case WeightDiscounted:
		d.gRef = infoest.DiscountedRefWeights(cfg.Tau)
		d.gTest = infoest.DiscountedTestWeights(cfg.TauPrime)
	default:
		d.gRef = infoest.UniformWeights(cfg.Tau)
		d.gTest = infoest.UniformWeights(cfg.TauPrime)
	}
	// The rolling log-distance matrix grows with the window: row i gains
	// one column per push until the window is full, at which point every
	// row has length τ+τ′.
	d.logD = make([][]float64, 0, cfg.Tau+cfg.TauPrime)
	return d, nil
}

// solverOptions returns the options of a solver that computes EMDs
// between b's signatures, for the detector and the pairwise workers
// alike: a ground-cost cache (emd.DefaultCostCacheSlots slots) iff b
// reports a fixed support (signature.FixedSupport: histogram, grid),
// whose signatures repeat their support pair on every solve. Clustering
// builders (k-means, k-medoids, online) emit a new support per bag, so
// a cache over them never hits yet holds K² costs per slot.
func solverOptions(b signature.Builder) []emd.SolverOption {
	if fs, ok := b.(signature.FixedSupport); ok && fs.FixedSupport() {
		return []emd.SolverOption{emd.WithCostCache(0)}
	}
	return nil
}

// WindowSize returns τ+τ′, the number of bags the detector retains.
func (d *Detector) WindowSize() int { return d.cfg.Tau + d.cfg.TauPrime }

// Count returns the number of bags pushed so far.
func (d *Detector) Count() int { return d.count }

// SetObserver installs (or, with nil, removes) the stage-level
// instrumentation seam. The observer must be safe for concurrent use
// when detectors sharing it run on different goroutines, and must not
// allocate (see obs.StageObserver). Instrumentation never changes the
// detector's output; with a nil observer Push pays one nil-check per
// stage boundary and records nothing.
func (d *Detector) SetObserver(o obs.StageObserver) { d.obs = o }

// observeStage closes one stage at now: it reports the duration since
// start to the observer, folds it into the per-stage cumulative totals
// (the introspection surface), and returns now as the next stage's
// start. Callers check d.obs != nil first.
func (d *Detector) observeStage(s obs.Stage, start time.Time) time.Time {
	now := time.Now()
	sec := now.Sub(start).Seconds()
	d.obs.ObserveStage(s, sec)
	d.stageCum[s] += sec
	d.stageCnt[s]++
	return now
}

// StageTotal is one pipeline stage's cumulative cost on this detector
// since construction or the last Reset. Populated only while an
// observer is attached.
type StageTotal struct {
	// Stage is the stage label ("preprocess", "signature", "emd",
	// "bootstrap") as exposed on bagcpd_push_stage_seconds.
	Stage string `json:"stage"`
	// Seconds is the total wall time spent in the stage.
	Seconds float64 `json:"seconds"`
	// Count is the number of times the stage ran.
	Count uint64 `json:"count"`
}

// StageTotals returns the per-stage cumulative times and counts. All
// zeros when no observer has been attached (stage timing is only
// measured while instrumented, so the uninstrumented hot path stays a
// single nil-check).
func (d *Detector) StageTotals() [obs.NumStages]StageTotal {
	var out [obs.NumStages]StageTotal
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		out[s] = StageTotal{Stage: s.String(), Seconds: d.stageCum[s], Count: d.stageCnt[s]}
	}
	return out
}

// Last returns the most recent inspection Point, if any inspection has
// happened since construction or the last Reset.
func (d *Detector) Last() (Point, bool) { return d.last, d.hasLast }

// Push feeds the next bag. Once at least τ+τ′ bags have arrived it
// returns the Point for inspection time t = count−τ′ (the scores lag the
// stream by τ′−1 steps, which is inherent to the method: the test window
// must fill before time t can be judged). Before that it returns nil.
func (d *Detector) Push(b bag.Bag) (*Point, error) {
	var clock time.Time
	if d.obs != nil {
		clock = time.Now()
	}
	if d.prep != nil {
		var err error
		b, err = d.prep.PreprocessBag(b)
		if err != nil {
			return nil, fmt.Errorf("core: preprocessing bag %d for statistic %q: %w", d.count, d.stat.Name(), err)
		}
	}
	if d.obs != nil {
		clock = d.observeStage(obs.StagePreprocess, clock)
	}
	sig, err := d.cfg.Builder.Build(b)
	if err != nil {
		return nil, fmt.Errorf("core: building signature for bag %d: %w", d.count, err)
	}
	if !d.cfg.RawMass {
		sig = sig.Normalized()
	}
	if d.obs != nil {
		clock = d.observeStage(obs.StageSignature, clock)
	}
	w := d.WindowSize()
	if len(d.window) == w {
		// Slide: drop the oldest signature and shift the distance matrix
		// up-left by one. The evicted row's backing array is recycled for
		// the incoming row, so a warm detector allocates nothing here.
		copy(d.window, d.window[1:])
		d.window[w-1] = signature.Signature{} // release the evicted signature
		d.window = d.window[:w-1]
		d.spare = d.logD[w-1][:0]
		for i := 0; i < w-1; i++ {
			copy(d.logD[i], d.logD[i+1][1:w])
			d.logD[i] = d.logD[i][:w-1]
		}
		d.logD = d.logD[:w-1]
	}
	// Append the new signature and its distances to the retained ones.
	row := d.spare
	d.spare = nil
	if row == nil {
		if n := len(d.rowPool); n > 0 {
			row = d.rowPool[n-1]
			d.rowPool = d.rowPool[:n-1]
		}
	}
	if cap(row) < len(d.window)+1 {
		row = make([]float64, 0, w)
	}
	row = row[:len(d.window)+1]
	row[len(row)-1] = 0 // self-distance slot; the diagonal is ignored
	var delta obs.SolveDelta
	for i, s := range d.window {
		// Distance consults the cost cache New attached, if any: a
		// fixed-support builder's pushes all hit one cached matrix.
		dist, err := d.solver.Distance(s, sig, d.cfg.Ground)
		if err != nil {
			return nil, fmt.Errorf("core: EMD between bags %d and %d: %w", d.count-len(d.window)+i, d.count, err)
		}
		if d.obs != nil {
			// Stats() is per-solve; fold each solve's counters into the
			// push's delta so one ObserveSolve covers all w−1 solves.
			st := d.solver.Stats()
			delta.Pivots += uint64(st.Pivots)
			delta.GroundEvals += uint64(st.GroundEvals)
			delta.CacheHits += uint64(st.CacheHits)
			delta.CacheMisses += uint64(st.CacheMisses)
		}
		l := infoest.ClampLog(dist, d.cfg.LogFloor)
		row[i] = l
		d.logD[i] = append(d.logD[i], l)
	}
	d.window = append(d.window, sig)
	d.logD = append(d.logD, row)
	d.count++
	if d.obs != nil {
		d.obs.ObserveSolve(delta)
		clock = d.observeStage(obs.StageEMD, clock)
	}

	if len(d.window) < w {
		return nil, nil
	}
	p, err := d.inspect()
	if d.obs != nil {
		d.observeStage(obs.StageBootstrap, clock)
	}
	return p, err
}

// interval runs the score/bootstrap stage over the current full window:
// it rebinds the window view and computes the Bayesian-bootstrap interval
// on the detector's persistent estimator. Zero allocations once warm.
func (d *Detector) interval() (bootstrap.Interval, error) {
	d.win = infoest.Window{LogD: d.logD, NRef: d.cfg.Tau, NTest: d.cfg.TauPrime}
	if err := d.win.Validate(); err != nil {
		return bootstrap.Interval{}, err
	}
	return d.est.Interval(d.scoreFn, d.gRef, d.gTest, d.cfg.Bootstrap)
}

// inspect scores the current full window. The inspection time is
// t = count − τ′ (the first bag of the test half).
func (d *Detector) inspect() (*Point, error) {
	t := d.count - d.cfg.TauPrime
	iv, err := d.interval()
	if err != nil {
		return nil, err
	}
	d.history[t] = iv

	p := &Point{T: t, Score: iv.Point, Interval: iv, Kappa: math.NaN()}
	if prev, ok := d.history[t-d.cfg.TauPrime]; ok {
		p.Kappa = bootstrap.Kappa(iv, prev)
		p.Alarm = p.Kappa > 0
	}
	// Trim history: only intervals within τ′ of the newest time are
	// ever consulted again.
	delete(d.history, t-2*d.cfg.TauPrime)
	d.last = *p
	d.hasLast = true
	return p, nil
}

// Reset rewinds the detector to its freshly-constructed state while
// retaining every internal buffer: the signature window and distance
// matrix are emptied (their backing arrays kept for reuse), the alarm
// history is cleared, and the bootstrap shard streams are rewound to
// their initial position for Config.Seed. A warm detector that is Reset
// and refed therefore produces bit-identical Points to a brand-new
// New(cfg) detector, with zero steady-state allocations.
//
// The Builder is NOT reset — a stateful builder (k-means, k-medoids)
// keeps its RNG position, so full bit-identity after Reset additionally
// requires a stateless builder or a fresh one from a BuilderFactory (the
// Engine's detector pool always supplies a fresh builder when it
// recycles a detector).
func (d *Detector) Reset() { d.reset(d.cfg.Builder, d.cfg.Seed) }

// reset is Reset plus rebinding the per-stream identity: the Engine's
// detector pool recycles a detector for a new stream by swapping in that
// stream's builder and seed.
func (d *Detector) reset(builder signature.Builder, seed int64) {
	d.cfg.Builder = builder
	d.cfg.Seed = seed
	for i := range d.window {
		d.window[i] = signature.Signature{}
	}
	d.window = d.window[:0]
	for i := range d.logD {
		d.rowPool = append(d.rowPool, d.logD[i][:0])
		d.logD[i] = nil
	}
	d.logD = d.logD[:0]
	if d.spare != nil {
		d.rowPool = append(d.rowPool, d.spare[:0])
		d.spare = nil
	}
	d.count = 0
	clear(d.history)
	d.est.ResetStreams(seed)
	// Introspection state is per-stream; the observer is engine-owned and
	// survives recycling.
	d.stageCum = [obs.NumStages]float64{}
	d.stageCnt = [obs.NumStages]uint64{}
	d.last = Point{}
	d.hasLast = false
}

// Run processes a whole sequence through a fresh detector and returns
// every produced Point in time order.
func Run(cfg Config, seq bag.Sequence) ([]Point, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	var out []Point
	for _, b := range seq {
		p, err := d.Push(b)
		if err != nil {
			return nil, err
		}
		if p != nil {
			out = append(out, *p)
		}
	}
	return out, nil
}

// Alarms extracts the inspection times with raised alarms.
func Alarms(points []Point) []int {
	var out []int
	for _, p := range points {
		if p.Alarm {
			out = append(out, p.T)
		}
	}
	return out
}

// Scores extracts the score series (parallel to the points).
func Scores(points []Point) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.Score
	}
	return out
}
