// Package emd computes the Earth Mover's Distance between signatures
// (§3.2 of the paper, Eq. 7-12; Rubner et al. 2000). The general case is
// solved exactly with the transportation simplex, including the partial
// matching that arises when the two signatures carry different total
// masses (the paper's constraint Eq. 11: total flow equals the smaller
// total). A closed-form fast path handles 1-D signatures with equal
// totals, where EMD coincides with the Wasserstein-1 distance between the
// two step CDFs.
//
// The hot path lives in Solver, a reusable workspace that computes
// distances with zero steady-state allocations. There is one simplex,
// at every signature size: block pricing over lazily computed cost
// rows, with shrinking candidate refills and a rooted basis tree (see
// simplex.go). The package-level Distance/DistanceFlow functions rent
// Solvers from an internal pool and are safe for concurrent use; loops
// that compute many distances from one goroutine should hold their own
// Solver instead.
package emd

import (
	"fmt"
	"math"

	"repro/internal/signature"
	"repro/internal/vec"
)

// Ground is a ground distance d_kl between two signature centers.
type Ground func(a, b []float64) float64

// Predefined ground distances.
var (
	// Euclidean is the L2 ground distance (the default).
	Euclidean Ground = vec.Dist2
	// Manhattan is the L1 ground distance.
	Manhattan Ground = vec.Dist1
	// SqEuclidean is the squared L2 ground distance. Note that with this
	// ground EMD is not a metric (triangle inequality fails), but it is a
	// valid dissimilarity accepted by the framework.
	SqEuclidean Ground = vec.SqDist2
	// Chebyshev is the L∞ ground distance.
	Chebyshev Ground = vec.DistInf
)

// Result carries the optimal transportation plan behind an EMD value.
type Result struct {
	// EMD is cost divided by the total moved amount (Eq. 12).
	EMD float64
	// Cost is the objective Σ f*_kl · d_kl of the optimal flow.
	Cost float64
	// Amount is the total flow Σ f*_kl = min(ΣW, ΣW′).
	Amount float64
	// Flow[k][l] is the optimal flow from source center k to sink
	// center l (after dropping zero-weight entries; indices follow the
	// filtered signatures in source/sink order).
	Flow [][]float64
}

// Distance returns EMD(s, t) under the ground distance g. A nil g selects
// the Euclidean ground distance. When the ground is Euclidean — whether
// selected implicitly by nil or passed explicitly as emd.Euclidean — and
// both signatures are one-dimensional with equal total weight, the exact
// 1-D closed form is used instead of the simplex; any other ground always
// goes through the simplex, even in 1-D.
func Distance(s, t signature.Signature, g Ground) (float64, error) {
	sv := solverPool.Get().(*Solver)
	defer solverPool.Put(sv)
	return sv.Distance(s, t, g)
}

// Distance1D returns the closed-form EMD for two 1-D signatures with
// equal total mass (the Wasserstein-1 distance ∫|F_s − F_t|). It returns
// an error if either signature is not 1-D or the totals differ by more
// than a 1e-9 relative tolerance.
func Distance1D(s, t signature.Signature) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, fmt.Errorf("emd: source %w", err)
	}
	if err := t.Validate(); err != nil {
		return 0, fmt.Errorf("emd: sink %w", err)
	}
	if s.Dim() != 1 || t.Dim() != 1 {
		return 0, fmt.Errorf("emd: Distance1D needs 1-D signatures, got %d-D and %d-D", s.Dim(), t.Dim())
	}
	ws, wt := s.TotalWeight(), t.TotalWeight()
	if !positiveTotal(ws) || !positiveTotal(wt) {
		return 0, fmt.Errorf("emd: Distance1D needs positive finite totals, got %g and %g", ws, wt)
	}
	if !balanced(s, t) {
		return 0, fmt.Errorf("emd: Distance1D needs equal totals, got %g and %g", ws, wt)
	}
	sv := solverPool.Get().(*Solver)
	defer solverPool.Put(sv)
	return sv.distance1D(s, t), nil
}

// positiveTotal reports whether a signature's total mass is usable by the
// closed-form 1-D path, which divides by it: positive and finite (NaN
// fails every comparison, so it is rejected too).
func positiveTotal(w float64) bool {
	return w > 0 && !math.IsInf(w, 0)
}

// balanced reports whether the two signatures' totals are equal within
// tolerance; see balancedTotals for the zero/NaN guard.
func balanced(s, t signature.Signature) bool {
	return balancedTotals(s.TotalWeight(), t.TotalWeight())
}

// balancedTotals reports whether the two totals are equal within
// tolerance. Zero, NaN, or infinite totals are never balanced: before
// this guard, two zero-total signatures satisfied |0−0| <= 1e-9·0 and
// were routed to the closed form, which would divide by zero and return
// a meaningless value instead of an error. Unusable totals now fall
// through to the simplex path, whose prepare step rejects them properly.
func balancedTotals(ws, wt float64) bool {
	if !positiveTotal(ws) || !positiveTotal(wt) {
		return false
	}
	return math.Abs(ws-wt) <= 1e-9*math.Max(ws, wt)
}

func sortEvents(events []ev1d) {
	// Shell sort: events lists are small (signature sizes), and sort.Slice
	// would allocate a closure per call in this hot path.
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	n := len(events)
	for _, gap := range gaps {
		for i := gap; i < n; i++ {
			e := events[i]
			j := i
			for ; j >= gap && events[j-gap].x > e.x; j -= gap {
				events[j] = events[j-gap]
			}
			events[j] = e
		}
	}
}

type ev1d = struct {
	x, w float64
}

// DistanceFlow computes the optimal transportation plan between s and t
// under ground distance g (nil means Euclidean) and returns the full
// Result. Zero-weight signature entries are dropped before solving.
func DistanceFlow(s, t signature.Signature, g Ground) (*Result, error) {
	sv := solverPool.Get().(*Solver)
	defer solverPool.Put(sv)
	return sv.DistanceFlow(s, t, g)
}
