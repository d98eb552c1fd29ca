// Package infoest implements the distance-based information estimators
// for weighted data of Hino & Murata ("Information estimators for
// weighted observations", Neural Networks 46, 2013) used in §3.3 of the
// paper, together with the two change-point scores built from them
// (Eq. 16 and Eq. 17).
//
// All estimators are pure functions of a pairwise log-distance matrix and
// weight vectors. This factoring is what makes the Bayesian bootstrap of
// §4 cheap: the log-EMD matrix of a window is computed once, and each
// bootstrap replicate only re-mixes it with fresh Dirichlet weights.
//
// The estimators carry an additive constant c and a multiplicative
// effective dimension d (see the paper's discussion after the estimator
// definitions). Both change-point scores are differences of estimators,
// in which c cancels and d is a common positive scale, so the package
// fixes c = 0 and d = 1.
package infoest

import (
	"fmt"
	"math"
)

// DefaultFloor is the smallest distance fed into log: distances below it
// are clamped so coincident signatures do not produce -Inf terms. The
// value is far below any distance arising from the experiments while
// keeping log bounded.
const DefaultFloor = 1e-12

// ClampLog returns log(max(d, floor)); a non-positive floor selects
// DefaultFloor.
func ClampLog(d, floor float64) float64 {
	if floor <= 0 {
		floor = DefaultFloor
	}
	if d < floor {
		d = floor
	}
	return math.Log(d)
}

// Information estimates the information content −log p(x) (up to the
// affine constants fixed to c=0, d=1) of an item x with respect to a
// weighted reference set, given the log-distances from every reference
// item to x and the reference weights γ (non-negative, summing to 1):
//
//	I(x; S') = Σ_j γ'_j · log d(S'_j, x)
func Information(logDistToX, gamma []float64) float64 {
	if len(logDistToX) != len(gamma) {
		panic(fmt.Sprintf("infoest: Information length mismatch %d != %d", len(logDistToX), len(gamma)))
	}
	s := 0.0
	for j, g := range gamma {
		if g == 0 {
			continue
		}
		s += g * logDistToX[j]
	}
	return s
}

// AutoEntropy estimates the entropy of a weighted set from its pairwise
// log-distance matrix (logD[i][j] = log d(S_i, S_j), diagonal ignored):
//
//	H(S) = Σ_i Σ_{j≠i} γ_i γ_j / (1 − γ_i) · log d(S_i, S_j)
//
// The 1/(1−γ_i) factor is the leave-one-out renormalization of the
// weights. Entries with γ_i = 1 (a set concentrated on one item) have no
// leave-one-out distribution and contribute zero.
func AutoEntropy(logD [][]float64, gamma []float64) float64 {
	n := len(gamma)
	if len(logD) != n {
		panic(fmt.Sprintf("infoest: AutoEntropy matrix has %d rows, want %d", len(logD), n))
	}
	h := 0.0
	for i := 0; i < n; i++ {
		gi := gamma[i]
		if gi == 0 || gi >= 1 {
			continue
		}
		row := logD[i]
		if len(row) != n {
			panic(fmt.Sprintf("infoest: AutoEntropy row %d has %d cols, want %d", i, len(row), n))
		}
		scale := gi / (1 - gi)
		for j := 0; j < n; j++ {
			if j == i || gamma[j] == 0 {
				continue
			}
			h += scale * gamma[j] * row[j]
		}
	}
	return h
}

// CrossEntropy estimates the cross entropy between two weighted sets from
// the rectangular log-distance matrix logD[i][j] = log d(A_i, B_j):
//
//	H(A, B) = Σ_i Σ_j γA_i γB_j · log d(A_i, B_j)
func CrossEntropy(logD [][]float64, gammaA, gammaB []float64) float64 {
	if len(logD) != len(gammaA) {
		panic(fmt.Sprintf("infoest: CrossEntropy matrix has %d rows, want %d", len(logD), len(gammaA)))
	}
	h := 0.0
	for i, ga := range gammaA {
		if ga == 0 {
			continue
		}
		row := logD[i]
		if len(row) != len(gammaB) {
			panic(fmt.Sprintf("infoest: CrossEntropy row %d has %d cols, want %d", i, len(row), len(gammaB)))
		}
		for j, gb := range gammaB {
			if gb == 0 {
				continue
			}
			h += ga * gb * row[j]
		}
	}
	return h
}

// Window is a view of one inspection point's data: the symmetric
// log-distance matrix over the τ reference signatures followed by the τ′
// test signatures, in time order. LogD must be (NRef+NTest)² with
// LogD[i][j] = log d(S_i, S_j); the diagonal is ignored.
type Window struct {
	LogD  [][]float64
	NRef  int
	NTest int
}

// Validate checks the window's structural invariants.
func (w Window) Validate() error {
	n := w.NRef + w.NTest
	if w.NRef < 1 || w.NTest < 1 {
		return fmt.Errorf("infoest: window needs at least one reference and one test signature, got %d/%d", w.NRef, w.NTest)
	}
	if len(w.LogD) != n {
		return fmt.Errorf("infoest: window matrix has %d rows, want %d", len(w.LogD), n)
	}
	for i, row := range w.LogD {
		if len(row) != n {
			return fmt.Errorf("infoest: window row %d has %d cols, want %d", i, len(row), n)
		}
	}
	return nil
}

// ScoreLR computes the log-likelihood-ratio change-point score of Eq. 16
// at the inspection point, which is the FIRST element of the test set:
//
//	scoreLR(S_t) = I(S_t; S_ref) − I(S_t; S_test \ S_t)
//
// gRef and gTest are the weight vectors γ of the reference and test sets
// (each non-negative, summing to 1). The test set must contain at least
// two signatures so that S_test \ S_t is non-empty; the leave-one-out
// weights are renormalized by 1/(1−γ_t).
func ScoreLR(w Window, gRef, gTest []float64) float64 {
	if len(gRef) != w.NRef || len(gTest) != w.NTest {
		panic(fmt.Sprintf("infoest: ScoreLR weight lengths %d/%d, want %d/%d", len(gRef), len(gTest), w.NRef, w.NTest))
	}
	if w.NTest < 2 {
		panic("infoest: ScoreLR requires at least two test signatures")
	}
	tIdx := w.NRef // inspection point: first test signature
	// I(S_t; S_ref)
	iRef := 0.0
	for i := 0; i < w.NRef; i++ {
		if gRef[i] == 0 {
			continue
		}
		iRef += gRef[i] * w.LogD[i][tIdx]
	}
	// I(S_t; S_test \ S_t) with leave-one-out renormalization.
	gt := gTest[0]
	if gt >= 1 {
		// Degenerate: all test mass on the inspection point. The
		// leave-one-out distribution is undefined; fall back to uniform
		// over the remaining test points.
		iTest := 0.0
		for j := 1; j < w.NTest; j++ {
			iTest += w.LogD[w.NRef+j][tIdx]
		}
		return iRef - iTest/float64(w.NTest-1)
	}
	iTest := 0.0
	for j := 1; j < w.NTest; j++ {
		if gTest[j] == 0 {
			continue
		}
		iTest += gTest[j] / (1 - gt) * w.LogD[w.NRef+j][tIdx]
	}
	return iRef - iTest
}

// ScoreKL computes the symmetrized-KL change-point score of Eq. 17:
//
//	scoreKL = (D_KL(S_ref‖S_test) + D_KL(S_test‖S_ref)) / 2
//	        = H(S_ref, S_test) − (H(S_ref) + H(S_test)) / 2
//
// using the cross- and auto-entropy estimators above (the cross-entropy
// estimator is symmetric in its arguments because the underlying distance
// is, so the two cross terms coincide).
func ScoreKL(w Window, gRef, gTest []float64) float64 {
	if len(gRef) != w.NRef || len(gTest) != w.NTest {
		panic(fmt.Sprintf("infoest: ScoreKL weight lengths %d/%d, want %d/%d", len(gRef), len(gTest), w.NRef, w.NTest))
	}
	cross := 0.0
	for i := 0; i < w.NRef; i++ {
		gi := gRef[i]
		if gi == 0 {
			continue
		}
		row := w.LogD[i]
		for j := 0; j < w.NTest; j++ {
			if gTest[j] == 0 {
				continue
			}
			cross += gi * gTest[j] * row[w.NRef+j]
		}
	}
	// Auto entropies over the two diagonal blocks.
	hRef := 0.0
	for i := 0; i < w.NRef; i++ {
		gi := gRef[i]
		if gi == 0 || gi >= 1 {
			continue
		}
		scale := gi / (1 - gi)
		row := w.LogD[i]
		for j := 0; j < w.NRef; j++ {
			if j == i || gRef[j] == 0 {
				continue
			}
			hRef += scale * gRef[j] * row[j]
		}
	}
	hTest := 0.0
	for i := 0; i < w.NTest; i++ {
		gi := gTest[i]
		if gi == 0 || gi >= 1 {
			continue
		}
		scale := gi / (1 - gi)
		row := w.LogD[w.NRef+i]
		for j := 0; j < w.NTest; j++ {
			if j == i || gTest[j] == 0 {
				continue
			}
			hTest += scale * gTest[j] * row[w.NRef+j]
		}
	}
	return cross - (hRef+hTest)/2
}

// ScoreKL4 scores four weight assignments (lanes) of one window in a
// single pass over w.LogD: out[l] = ScoreKL(w, gRef[l], gTest[l]), bit
// for bit. Each lane keeps its own accumulators and adds its terms in
// ScoreKL's order; the lanes only share the loads of the matrix, and
// their four independent add chains overlap where ScoreKL's one chain
// waits on every add.
//
// ScoreKL skips the terms of a zero weight, and the auto-entropy terms
// of a weight >= 1. ScoreKL4 has no skips: when any lane holds a weight
// outside (0, 1) it returns false without writing out, and the caller
// scores the four lanes with ScoreKL.
func ScoreKL4(w Window, gRef, gTest *[4][]float64, out *[4]float64) bool {
	nRef, nTest := w.NRef, w.NTest
	for l := range gRef {
		if len(gRef[l]) != nRef || len(gTest[l]) != nTest {
			panic(fmt.Sprintf("infoest: ScoreKL4 lane %d weight lengths %d/%d, want %d/%d", l, len(gRef[l]), len(gTest[l]), nRef, nTest))
		}
		if !interior(gRef[l]) || !interior(gTest[l]) {
			return false
		}
	}
	r0, r1, r2, r3 := gRef[0][:nRef], gRef[1][:nRef], gRef[2][:nRef], gRef[3][:nRef]
	t0, t1, t2, t3 := gTest[0][:nTest], gTest[1][:nTest], gTest[2][:nTest], gTest[3][:nTest]
	var c0, c1, c2, c3 float64
	for i, a0 := range r0 {
		a1, a2, a3 := r1[i], r2[i], r3[i]
		row := w.LogD[i][nRef:][:nTest]
		for j, d := range row {
			c0 += a0 * t0[j] * d
			c1 += a1 * t1[j] * d
			c2 += a2 * t2[j] * d
			c3 += a3 * t3[j] * d
		}
	}
	var hr [4]float64
	auto4(w.LogD[:nRef], 0, gRef, &hr)
	var ht [4]float64
	auto4(w.LogD[nRef:nRef+nTest], nRef, gTest, &ht)
	out[0] = c0 - (hr[0]+ht[0])/2
	out[1] = c1 - (hr[1]+ht[1])/2
	out[2] = c2 - (hr[2]+ht[2])/2
	out[3] = c3 - (hr[3]+ht[3])/2
	return true
}

// interior reports whether every weight lies in the open interval (0, 1),
// where ScoreKL skips no term.
func interior(g []float64) bool {
	for _, v := range g {
		if !(v > 0 && v < 1) {
			return false
		}
	}
	return true
}

// auto4 accumulates the four lanes' auto-entropy of one diagonal block of
// a window: rows[i][off+j] is the log-distance between block items i and
// j. Every weight must lie in (0, 1); the terms are added in ScoreKL's
// order, skipping only the diagonal.
func auto4(rows [][]float64, off int, g *[4][]float64, h *[4]float64) {
	n := len(rows)
	g0, g1, g2, g3 := g[0][:n], g[1][:n], g[2][:n], g[3][:n]
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	for i := 0; i < n; i++ {
		s0 := g0[i] / (1 - g0[i])
		s1 := g1[i] / (1 - g1[i])
		s2 := g2[i] / (1 - g2[i])
		s3 := g3[i] / (1 - g3[i])
		row := rows[i][off : off+n]
		for j, d := range row[:i] {
			h0 += s0 * g0[j] * d
			h1 += s1 * g1[j] * d
			h2 += s2 * g2[j] * d
			h3 += s3 * g3[j] * d
		}
		for j := i + 1; j < n; j++ {
			d := row[j]
			h0 += s0 * g0[j] * d
			h1 += s1 * g1[j] * d
			h2 += s2 * g2[j] * d
			h3 += s3 * g3[j] * d
		}
	}
	h[0], h[1], h[2], h[3] = h0, h1, h2, h3
}

// UniformWeights returns the equal-weight vector (1/n, …, 1/n).
func UniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// DiscountedRefWeights returns reference weights γ_i ∝ 1/|t−i| (Eq. 15):
// the reference signatures are at times t−τ … t−1 relative to the
// inspection point t, so the most recent one gets the largest weight.
// Index 0 is the oldest reference signature.
func DiscountedRefWeights(tau int) []float64 {
	w := make([]float64, tau)
	total := 0.0
	for i := 0; i < tau; i++ {
		// Signature i sits at time t−τ+i, so |t − (t−τ+i)| = τ−i.
		w[i] = 1 / float64(tau-i)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// DiscountedTestWeights returns test weights γ_i ∝ 1/|t−i+1| for the test
// signatures at times t … t+τ′−1 (Eq. 15): the inspection point itself
// gets the largest weight. Index 0 is the inspection point.
func DiscountedTestWeights(tauPrime int) []float64 {
	w := make([]float64, tauPrime)
	total := 0.0
	for i := 0; i < tauPrime; i++ {
		// Signature i sits at time t+i, so |t − (t+i) + 1|... the paper's
		// convention makes the weight decay with forward distance: 1/(i+1).
		w[i] = 1 / float64(i+1)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}
