package emd

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/signature"
)

// Differential fuzzing of the block-pricing solver. The fuzzers decode
// a compact parameter tuple into a random signature pair — K ∈ [1,64]
// per side, dimensions 1-3, optional zero-weight entries, RawMass
// on/off — and cross-check every solver entry point against the
// retained seed-reference simplex (referenceSolveTransport in
// solver_test.go), every pricing block size against it, cached against
// uncached solves bit for bit, swapped arguments, and (in 1-D) the
// closed form, asserting optimal-cost equality within 1e-9 and the
// absence of panics. Run them continuously with:
//
//	go test -fuzz=FuzzSolverDistance ./internal/emd
//	go test -fuzz=FuzzDistance1D ./internal/emd
//
// The seed corpus lives in testdata/fuzz/<FuzzName>/ and is replayed by
// every plain `go test` run; CI additionally runs a short -fuzztime
// smoke so the mutation engine itself keeps working.

// fuzzSig decodes one side of a fuzz tuple into a valid signature:
// k entries (clamped into [1,64]), dim-dimensional centers, Gamma
// weights scaled to total, and zeroMask bits forcing individual weights
// to exactly zero (at least one entry is always kept positive so the
// transportation problem is non-empty).
func fuzzSig(rng *randx.RNG, k uint8, dim int, zeroMask uint16, total float64) signature.Signature {
	n := 1 + int(k)%64
	var s signature.Signature
	raw := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		s.Centers = append(s.Centers, rng.NormalVec(dim, 0, 3))
		raw[i] = rng.Gamma(1, 1) + 0.01
		if zeroMask&(1<<(i%16)) != 0 && i != 0 {
			raw[i] = 0
			continue
		}
		sum += raw[i]
	}
	for i := range raw {
		if raw[i] > 0 {
			raw[i] *= total / sum
		}
	}
	s.Weights = raw
	return s
}

func FuzzSolverDistance(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12), uint8(2), uint16(0), false)
	f.Add(int64(2), uint8(63), uint8(63), uint8(2), uint16(0xF0F0), true)
	f.Add(int64(3), uint8(1), uint8(40), uint8(1), uint16(0), true)
	f.Add(int64(4), uint8(17), uint8(17), uint8(3), uint16(0x0001), false)
	f.Add(int64(5), uint8(2), uint8(2), uint8(1), uint16(0xFFFF), false)
	f.Add(int64(-9), uint8(32), uint8(5), uint8(2), uint16(0x1234), true)
	// Shapes chosen to stress the cached-solve differentials below:
	// dup/perm variants of near-square and lopsided instances.
	f.Add(int64(11), uint8(24), uint8(24), uint8(2), uint16(0x0F00), false)
	f.Add(int64(12), uint8(48), uint8(7), uint8(1), uint16(0), true)
	f.Fuzz(func(t *testing.T, seed int64, kS, kT, dim uint8, zeroMask uint16, rawMass bool) {
		rng := randx.New(seed)
		d := 1 + int(dim)%3
		totalS, totalT := 1.0, 1.0
		if rawMass {
			// Unbalanced totals: partial matching through the dummy node.
			totalS = 0.5 + 4*rng.Float64()
			totalT = 0.5 + 4*rng.Float64()
		}
		s := fuzzSig(rng, kS, d, zeroMask, totalS)
		u := fuzzSig(rng, kT, d, zeroMask>>3, totalT)
		// 1-D balanced Euclidean pairs would take the closed form, which
		// is a different algorithm with a looser (1e-7) contract; pin the
		// simplex with the Manhattan ground there so this fuzzer always
		// measures simplex-vs-simplex at 1e-9.
		g := Euclidean
		if d == 1 {
			g = Manhattan
		}

		want := referenceEMD(t, s, u, g)
		tol := 1e-9 * (1 + math.Abs(want))

		dist, err := NewSolver().Distance(s, u, g)
		if err != nil {
			t.Fatalf("block-pricing solver: %v", err)
		}
		if math.Abs(dist-want) > tol {
			t.Fatalf("block-pricing solver %.17g vs reference %.17g (Δ=%g)", dist, want, dist-want)
		}

		// Exotic pricing blocks must not change the optimum either: the
		// block size picks the pivot order, so it is the differential
		// partner of the default solver.
		blocky, err := NewSolver(WithPricingBlock(1+int(kS)%7)).Distance(s, u, g)
		if err != nil {
			t.Fatalf("block-pricing solver (block=%d): %v", 1+int(kS)%7, err)
		}
		if math.Abs(blocky-want) > tol {
			t.Fatalf("block-pricing solver (block=%d) %.17g vs reference %.17g", 1+int(kS)%7, blocky, want)
		}

		// The pooled package-level entry point too.
		pkg, err := Distance(s, u, g)
		if err != nil {
			t.Fatalf("package Distance: %v", err)
		}
		if math.Abs(pkg-want) > tol {
			t.Fatalf("package Distance %.17g vs reference %.17g", pkg, want)
		}

		// Ground-cost caching must be bit-transparent at any pricing
		// block: solve each fuzzed pair twice on a cached solver — the
		// cold solve stores the cost matrix, the warm solve is served
		// entirely from it — and require exact equality with the
		// uncached value both times.
		for _, v := range []struct {
			name     string
			block    int
			uncached float64
		}{{"default block", 0, dist}, {"exotic block", 1 + int(kS)%7, blocky}} {
			cs := NewSolver(WithPricingBlock(v.block), WithCostCache(2))
			for pass := 0; pass < 2; pass++ {
				got, err := cs.Distance(s, u, g)
				if err != nil {
					t.Fatalf("cached %s (pass %d): %v", v.name, pass, err)
				}
				if got != v.uncached {
					t.Fatalf("cached %s (pass %d) %.17g != uncached %.17g (cache must be bit-transparent)", v.name, pass, got, v.uncached)
				}
			}
		}

		// Duplicated and permuted support points preserve the
		// mathematical EMD but exercise the cache fingerprint on
		// near-identical supports (a duplicated center must NOT be
		// confused with its original, a permutation must key its own
		// entry). Pivot order differs, so the check is against the
		// reference at tol — plus exact warm==cold on each variant.
		perm := signature.Signature{
			Centers: make([][]float64, len(s.Centers)),
			Weights: make([]float64, len(s.Weights)),
		}
		for i := range s.Centers {
			perm.Centers[len(s.Centers)-1-i] = s.Centers[i]
			perm.Weights[len(s.Weights)-1-i] = s.Weights[i]
		}
		dup := signature.Signature{ // split entry 0's mass across a duplicated center
			Centers: append([][]float64{s.Centers[0]}, s.Centers...),
			Weights: append([]float64{s.Weights[0] / 2}, s.Weights...),
		}
		dup.Weights[1] = s.Weights[0] - s.Weights[0]/2
		dp := NewSolver(WithCostCache(3))
		for _, v := range []struct {
			name string
			sig  signature.Signature
		}{{"permuted", perm}, {"duplicated", dup}} {
			cold, err := dp.Distance(v.sig, u, g)
			if err != nil {
				t.Fatalf("cached %s supports: %v", v.name, err)
			}
			if math.Abs(cold-want) > tol {
				t.Fatalf("%s supports %.17g vs reference %.17g (Δ=%g)", v.name, cold, want, cold-want)
			}
			warm, err := dp.Distance(v.sig, u, g)
			if err != nil {
				t.Fatalf("cached %s supports (warm): %v", v.name, err)
			}
			if warm != cold {
				t.Fatalf("%s supports: warm %.17g != cold %.17g (cache must be bit-transparent)", v.name, warm, cold)
			}
		}

		// Basic metric sanity on every fuzzed instance.
		if dist < -tol || math.IsNaN(dist) || math.IsInf(dist, 0) {
			t.Fatalf("block-pricing solver returned %g", dist)
		}
		back, err := NewSolver().Distance(u, s, g)
		if err != nil {
			t.Fatalf("reverse: %v", err)
		}
		if math.Abs(back-dist) > 1e-7*(1+dist) {
			t.Fatalf("asymmetry: %.17g forward vs %.17g reverse", dist, back)
		}
	})
}

func FuzzDistance1D(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12), uint16(0))
	f.Add(int64(2), uint8(63), uint8(63), uint16(0xAAAA))
	f.Add(int64(3), uint8(1), uint8(1), uint16(0))
	f.Add(int64(7), uint8(40), uint8(3), uint16(0x00FF))
	f.Fuzz(func(t *testing.T, seed int64, kS, kT uint8, zeroMask uint16) {
		rng := randx.New(seed)
		s := fuzzSig(rng, kS, 1, zeroMask, 1)
		u := fuzzSig(rng, kT, 1, zeroMask>>5, 1)

		closed, err := Distance1D(s, u)
		if err != nil {
			t.Fatalf("Distance1D: %v", err)
		}
		if closed < 0 || math.IsNaN(closed) || math.IsInf(closed, 0) {
			t.Fatalf("Distance1D returned %g", closed)
		}

		// Distance must route balanced 1-D Euclidean pairs to the same
		// closed form, bit for bit, through the pooled entry point with
		// an implicit ground and a held solver with an explicit one.
		auto, err := Distance(s, u, nil)
		if err != nil {
			t.Fatalf("Distance: %v", err)
		}
		if auto != closed {
			t.Fatalf("Distance %.17g != Distance1D %.17g", auto, closed)
		}
		held, err := NewSolver().Distance(s, u, Euclidean)
		if err != nil {
			t.Fatalf("Solver.Distance: %v", err)
		}
		if held != closed {
			t.Fatalf("Solver.Distance %.17g != Distance1D %.17g", held, closed)
		}

		// Against the seed-reference simplex: the closed form and the
		// simplex are different algorithms, so the contract is 1e-7
		// (see TestSolver1DFastPathMatchesSimplex); the simplex itself
		// must agree with the reference at 1e-9.
		want := referenceEMD(t, s, u, Euclidean)
		if math.Abs(closed-want) > 1e-7*(1+want) {
			t.Fatalf("closed form %.17g vs reference simplex %.17g", closed, want)
		}
		viaSimplex, err := NewSolver().Distance(s, u, Manhattan) // 1-D: L1 == L2 ground, but forces the simplex
		if err != nil {
			t.Fatalf("simplex route: %v", err)
		}
		if math.Abs(viaSimplex-want) > 1e-9*(1+want) {
			t.Fatalf("block-pricing simplex %.17g vs reference simplex %.17g", viaSimplex, want)
		}

		// Symmetry of the closed form.
		back, err := Distance1D(u, s)
		if err != nil {
			t.Fatalf("reverse Distance1D: %v", err)
		}
		if math.Abs(back-closed) > 1e-9*(1+closed) {
			t.Fatalf("asymmetric closed form: %.17g vs %.17g", closed, back)
		}
	})
}
