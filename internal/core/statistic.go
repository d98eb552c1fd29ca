// The pluggable statistic layer: per-inspection change-point scores as
// named, registered values instead of a hardwired enum.
//
// The paper's Eq. 16/17 scores are two points in a family — any pure
// function of the window's log-distance matrix and the (resampled)
// signature weights is a valid per-inspection statistic, and it
// automatically inherits the whole pipeline: the incremental log-EMD
// window, the Bayesian bootstrap (which only re-mixes weights), the
// κ_t interval-overlap alarm, and snapshot/restore. This file defines
// the seam once: a Statistic is a named object that yields the
// bootstrap.ScoreFunc closure for a window, every layer above
// identifies it by its stable NAME (config validation, the engine
// snapshot fingerprint, the CLI flag, the option surface), and a
// process-wide registry maps names to implementations.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/infoest"
)

// Statistic is a named per-inspection change-point score. Implementations
// must be stateless values (they are shared across detectors and
// goroutines); per-window state lives in the closure Bind returns.
type Statistic interface {
	// Name is the stable registry key ("kl", "lr", …). It identifies the
	// statistic in Config validation, the engine snapshot fingerprint,
	// the bagcpd -score flag and the option surface, so it must never
	// change once released.
	Name() string
	// Validate checks that cfg satisfies the statistic's structural
	// requirements (e.g. the LR score needs TauPrime >= 2). It must not
	// retain cfg.
	Validate(cfg Config) error
	// Bind returns the replicate score closure over win. The detector
	// rebuilds *win in place before every inspection, and the bootstrap
	// calls the closure once per replicate with freshly drawn weights —
	// the closure must re-read *win on every call. Calls come serially
	// from the pushing goroutine. A statistic may add a batch kernel of
	// the same closure by implementing BatchScorer.
	Bind(win *infoest.Window) bootstrap.ScoreFunc
}

// BatchScorer is an optional Statistic extension: a statistic that
// implements it gives the bootstrap a kernel that scores
// bootstrap.Lanes replicates per call. The kernel must equal Bind's
// closure bit for bit on every lane (it may decline a batch, which then
// goes through the closure), and it follows the closure's rules: it
// re-reads *win on every call, and calls come serially. The bootstrap
// intervals, and so every output, are the same with or without it.
type BatchScorer interface {
	BindBatch(win *infoest.Window) bootstrap.BatchScoreFunc
}

// BagPreprocessor is an optional Statistic extension: a statistic that
// implements it transforms every incoming bag BEFORE signature
// construction. This is how data-space normalizations (the compositional
// CLR map) ride the statistic seam without touching the builder layer.
// The transform must be a pure, deterministic function of the bag.
type BagPreprocessor interface {
	PreprocessBag(b bag.Bag) (bag.Bag, error)
}

var (
	statMu  sync.RWMutex
	statReg = map[string]Statistic{
		"kl":  klStatistic{},
		"lr":  lrStatistic{},
		"clr": clrStatistic{},
	}
)

// RegisterStatistic adds a custom statistic to the process-wide registry
// under s.Name(). Names must be non-empty, contain no whitespace or
// commas (they appear in CSV output and comma-joined error messages),
// and not collide with a registered statistic. Registration is
// typically done from an init function; the statistic then works
// everywhere a built-in does — Config.Statistic, WithStatistic, the
// bagcpd -score flag — and its NAME joins the snapshot fingerprint, so
// both ends of a snapshot hand-off must register it.
func RegisterStatistic(s Statistic) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("core: statistic name must be non-empty")
	}
	if strings.ContainsAny(name, " \t\n\r,") {
		return fmt.Errorf("core: statistic name %q must not contain whitespace or commas", name)
	}
	statMu.Lock()
	defer statMu.Unlock()
	if _, dup := statReg[name]; dup {
		return fmt.Errorf("core: statistic %q is already registered", name)
	}
	statReg[name] = s
	return nil
}

// LookupStatistic returns the registered statistic for name.
func LookupStatistic(name string) (Statistic, bool) {
	statMu.RLock()
	defer statMu.RUnlock()
	s, ok := statReg[name]
	return s, ok
}

// StatisticNames returns every registered statistic name, sorted. Error
// messages and CLI usage text derive the valid set from it, so the
// listed names can never go stale.
func StatisticNames() []string {
	statMu.RLock()
	names := make([]string, 0, len(statReg))
	for name := range statReg {
		names = append(names, name)
	}
	statMu.RUnlock()
	sort.Strings(names)
	return names
}

// klStatistic is the symmetrized-KL score of Eq. 17: conservative and
// robust, less sensitive to minor changes. Registered as "kl".
type klStatistic struct{}

func (klStatistic) Name() string { return "kl" }

func (klStatistic) Validate(Config) error { return nil }

func (klStatistic) Bind(win *infoest.Window) bootstrap.ScoreFunc {
	return func(gRef, gTest []float64) float64 {
		return infoest.ScoreKL(*win, gRef, gTest)
	}
}

func (klStatistic) BindBatch(win *infoest.Window) bootstrap.BatchScoreFunc {
	return func(gRef, gTest *[bootstrap.Lanes][]float64, out *[bootstrap.Lanes]float64) bool {
		return infoest.ScoreKL4(*win, gRef, gTest, out)
	}
}

// lrStatistic is the log-likelihood-ratio score of Eq. 16: sensitive to
// small changes but noisier. Registered as "lr".
type lrStatistic struct{}

func (lrStatistic) Name() string { return "lr" }

func (lrStatistic) Validate(cfg Config) error {
	if cfg.TauPrime < 2 {
		return fmt.Errorf("core: statistic %q (ScoreLR, Eq. 16) requires TauPrime >= 2, got %d", "lr", cfg.TauPrime)
	}
	return nil
}

func (lrStatistic) Bind(win *infoest.Window) bootstrap.ScoreFunc {
	return func(gRef, gTest []float64) float64 {
		return infoest.ScoreLR(*win, gRef, gTest)
	}
}

// clrZeroFloor replaces zero components before the CLR log transform
// (the standard multiplicative zero-replacement for compositional data,
// taken at a value far below any real share). Deterministic, so two
// detectors always agree on the transformed bags.
const clrZeroFloor = 1e-12

// clrStatistic is the compositional statistic for share-of-total bags,
// registered as "clr": every bag point is mapped through the centered
// log-ratio transform of Aitchison geometry,
//
//	clr(p)_j = log p_j − (1/d) Σ_k log p_k,
//
// before signature construction, and the window is then scored with the
// symmetrized-KL estimator (Eq. 17) exactly like "kl". Points whose
// components are shares of a total (market shares, traffic mix, budget
// composition) live on the simplex, where the Euclidean EMD ground
// distance over-weights changes in large components; the CLR map sends
// compositions to R^d with the simplex geometry flattened out, and it is
// scale-invariant — raw counts and normalized shares transform to the
// same point, so callers need not normalize first. Zero components are
// floored at clrZeroFloor (multiplicative zero replacement); negative
// components are rejected, and points need at least 2 components (the
// CLR of a 1-D composition is identically zero).
type clrStatistic struct{ klStatistic }

func (clrStatistic) Name() string { return "clr" }

func (clrStatistic) PreprocessBag(b bag.Bag) (bag.Bag, error) {
	if b.Len() == 0 {
		return b, nil
	}
	d := b.Dim()
	if d < 2 {
		return bag.Bag{}, fmt.Errorf("core: statistic %q needs points with >= 2 components (compositions), got dimension %d", "clr", d)
	}
	pts := make([][]float64, len(b.Points))
	for i, p := range b.Points {
		out := make([]float64, d)
		mean := 0.0
		for j, v := range p {
			if v < 0 {
				return bag.Bag{}, fmt.Errorf("core: statistic %q: point %d component %d is negative (%g); compositions must be non-negative", "clr", i, j, v)
			}
			if v < clrZeroFloor {
				v = clrZeroFloor
			}
			out[j] = math.Log(v)
			mean += out[j]
		}
		mean /= float64(d)
		for j := range out {
			out[j] -= mean
		}
		pts[i] = out
	}
	return bag.Bag{T: b.T, Points: pts}, nil
}
