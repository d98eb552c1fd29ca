// Package randx provides the deterministic, seedable random samplers used
// by the synthetic workloads and the Bayesian bootstrap: univariate and
// multivariate normal, Poisson, gamma, Dirichlet, exponential, and
// categorical draws. All generators consume an explicit *RNG so every
// experiment in the repository is reproducible from a single seed.
//
// Two source backends exist. New wraps the stdlib source, the historical
// stream every experiment's data seeds were chosen against. NewFast wraps
// xoshiro256++, whose whole state is four words: it is the backend of
// every stream a detector checkpoints (bootstrap shards, randomized
// signature builders), because State and Restore copy those words and so
// cost O(1) whatever the stream's age.
package randx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vec"
)

// RNG is the random source for all samplers. It wraps math/rand.Rand so a
// single seeded stream drives an entire experiment.
type RNG struct {
	*rand.Rand
	src rand.Source
}

// State is the serializable position of a NewFast RNG: its four
// xoshiro256++ state words. Restore it with (*RNG).Restore to obtain a
// generator whose future draws are bit-identical to the original's.
// encoding/json round-trips uint64 values exactly.
type State struct {
	S [4]uint64 `json:"s"`
}

// New returns an RNG seeded with seed, backed by the stdlib source (the
// historical stream every experiment's seeds were chosen against). Its
// state cannot be exported: State errors for it.
func New(seed int64) *RNG {
	src := rand.NewSource(seed)
	return &RNG{Rand: rand.New(src), src: src}
}

// NewFast returns an RNG backed by a xoshiro256++ source (Blackman &
// Vigna 2018). Its stream differs from New's, but seeding — and therefore
// Reseed — is O(1), where the stdlib source pays a ~600-word feedback
// register initialization, and its position is exportable with State.
func NewFast(seed int64) *RNG {
	x := &xoshiro{}
	x.Seed(seed)
	return &RNG{Rand: rand.New(x), src: x}
}

// errStdState is returned by State and Restore on a New RNG.
var errStdState = errors.New("randx: a stdlib-backed RNG (New) has no exportable state; use NewFast")

// State returns the RNG's current position. It errors for a New RNG,
// whose stdlib source does not export its state.
func (r *RNG) State() (State, error) {
	x, ok := r.src.(*xoshiro)
	if !ok {
		return State{}, errStdState
	}
	return State{S: x.s}, nil
}

// Restore positions r at st by copying its state words, after which r's
// future draws are bit-identical to the RNG st was captured from. It
// refuses the all-zero state, a fixed point of xoshiro that would emit
// zeros forever, and a New RNG.
func (r *RNG) Restore(st State) error {
	x, ok := r.src.(*xoshiro)
	if !ok {
		return errStdState
	}
	if st.S == [4]uint64{} {
		return errors.New("randx: refusing the all-zero xoshiro state")
	}
	x.s = st.S
	return nil
}

// xoshiro is a xoshiro256++ generator (Blackman & Vigna 2018) seeded from
// an int64 via splitmix64, implementing math/rand.Source64.
type xoshiro struct {
	s [4]uint64
}

// Seed initializes the state from seed by four splitmix64 steps, the
// initialization recommended by the xoshiro authors. O(1), unlike the
// stdlib source.
func (x *xoshiro) Seed(seed int64) {
	z := uint64(seed)
	for i := range x.s {
		z += 0x9E3779B97F4A7C15
		w := z
		w = (w ^ (w >> 30)) * 0xBF58476D1CE4E5B9
		w = (w ^ (w >> 27)) * 0x94D049BB133111EB
		x.s[i] = w ^ (w >> 31)
	}
}

func (x *xoshiro) Uint64() uint64 {
	s := &x.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func (x *xoshiro) Int63() int64 { return int64(x.Uint64() >> 1) }

func rotl(v uint64, k uint) uint64 { return (v << k) | (v >> (64 - k)) }

// SplitSeed deterministically derives an independent sub-seed from
// (seed, id) with splitmix64-style finalization. It is a pure function:
// shard k of a parallel computation can derive its own stream from a
// single base seed without consuming draws from a shared RNG, and the
// derived streams do not depend on how many shards run or in what order.
func SplitSeed(seed, id int64) int64 {
	z := uint64(seed) ^ (uint64(id) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}

// SplitSeedString derives an independent sub-seed from (seed, id) for
// string-keyed shards: the id is hashed with FNV-1a 64 and the result
// mixed through SplitSeed. Like SplitSeed it is a pure function, so a
// multi-stream engine can derive each stream's seed from a single engine
// seed and the stream's name, independent of how many streams exist or
// in what order they are opened.
func SplitSeedString(seed int64, id string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return SplitSeed(seed, int64(h))
}

// Split derives an independent RNG from r, keyed by id. It is used to give
// each subsystem of an experiment (data generation, bootstrap, …) its own
// stream so adding draws to one does not perturb the others.
func (r *RNG) Split(id int64) *RNG {
	return New(SplitSeed(r.Int63(), id))
}

// Reseed resets r to the stream produced by its constructor with seed,
// without allocating a new generator. Parallel shard workers keep one RNG
// each and reseed it per task, which keeps hot loops allocation-free.
// O(1) for NewFast RNGs; New RNGs pay the stdlib's full re-init.
func (r *RNG) Reseed(seed int64) { r.src.Seed(seed) }

// Normal draws a sample from N(mu, sigma²).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// NormalVec fills a length-d vector with independent N(mu, sigma²) draws.
func (r *RNG) NormalVec(d int, mu, sigma float64) []float64 {
	out := make([]float64, d)
	for i := range out {
		out[i] = r.Normal(mu, sigma)
	}
	return out
}

// MVNormal represents a multivariate normal distribution N(mean, cov),
// with the Cholesky factor of the covariance precomputed for fast
// repeated sampling.
type MVNormal struct {
	mean  []float64
	chol  *vec.Matrix
	lower bool
}

// NewMVNormal prepares a sampler for N(mean, cov). cov must be a symmetric
// positive semi-definite d×d matrix where d = len(mean).
func NewMVNormal(mean []float64, cov *vec.Matrix) (*MVNormal, error) {
	d := len(mean)
	if cov.Rows != d || cov.Cols != d {
		return nil, fmt.Errorf("randx: covariance is %dx%d, want %dx%d", cov.Rows, cov.Cols, d, d)
	}
	l, err := vec.Cholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("randx: covariance not PSD: %w", err)
	}
	return &MVNormal{mean: vec.Clone(mean), chol: l, lower: true}, nil
}

// NewMVNormalIsotropic prepares a sampler for N(mean, sigma²·I).
func NewMVNormalIsotropic(mean []float64, sigma float64) *MVNormal {
	d := len(mean)
	l := vec.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		l.Set(i, i, sigma)
	}
	return &MVNormal{mean: vec.Clone(mean), chol: l, lower: true}
}

// Dim returns the dimensionality of the distribution.
func (m *MVNormal) Dim() int { return len(m.mean) }

// Sample draws one vector from the distribution using r.
func (m *MVNormal) Sample(r *RNG) []float64 {
	d := len(m.mean)
	z := make([]float64, d)
	for i := range z {
		z[i] = r.NormFloat64()
	}
	out := vec.Clone(m.mean)
	for i := 0; i < d; i++ {
		row := m.chol.Row(i)
		s := 0.0
		for j := 0; j <= i; j++ {
			s += row[j] * z[j]
		}
		out[i] += s
	}
	return out
}

// Poisson draws a sample from a Poisson distribution with mean lambda.
// For small lambda it uses Knuth's product-of-uniforms inversion; for
// large lambda it uses the PTRS transformed-rejection method of
// Hörmann (1993), which has bounded expected iterations for all lambda.
func (r *RNG) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return r.poissonPTRS(lambda)
	}
}

// poissonPTRS implements Hörmann's PTRS rejection sampler for lambda >= 10.
func (r *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int(k)
		}
	}
}

// Gamma draws from a Gamma(shape, scale) distribution (mean shape·scale)
// using the Marsaglia-Tsang squeeze method, with the standard boosting
// trick for shape < 1. It panics if shape or scale is not positive.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("randx: Gamma requires positive parameters, got shape=%g scale=%g", shape, scale))
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^{1/a}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// Dirichlet draws a probability vector from Dir(alpha). Every alpha[i]
// must be positive. The result sums to exactly 1 (renormalized).
func (r *RNG) Dirichlet(alpha []float64) []float64 {
	out := make([]float64, len(alpha))
	r.DirichletInto(alpha, out)
	return out
}

// DirichletInto is Dirichlet without the allocation: it fills dst, which
// must have len(alpha) elements. The Bayesian bootstrap calls this in a
// tight loop.
func (r *RNG) DirichletInto(alpha []float64, dst []float64) {
	if len(dst) != len(alpha) {
		panic(fmt.Sprintf("randx: DirichletInto dst length %d != %d", len(dst), len(alpha)))
	}
	total := 0.0
	for i, a := range alpha {
		var g float64
		if a == 1 {
			// Gamma(1,1) is Exp(1); the direct exponential draw is several
			// times cheaper than the Marsaglia-Tsang rejection loop. This is
			// the common case: the plain Bayesian bootstrap uses Dir(1,…,1).
			g = r.ExpFloat64()
		} else {
			g = r.Gamma(a, 1)
		}
		dst[i] = g
		total += g
	}
	if total == 0 {
		// All gammas underflowed (tiny alphas): fall back to uniform.
		for i := range dst {
			dst[i] = 1 / float64(len(dst))
		}
		return
	}
	for i := range dst {
		dst[i] /= total
	}
}

// DirichletUniform draws from the flat Dirichlet Dir(1,…,1) of dimension n,
// the distribution used by the plain Bayesian bootstrap (Rubin 1981).
func (r *RNG) DirichletUniform(n int) []float64 {
	// For alpha = 1 the gamma draws reduce to exponentials.
	out := make([]float64, n)
	total := 0.0
	for i := range out {
		e := r.ExpFloat64()
		out[i] = e
		total += e
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// Categorical draws an index from the (unnormalized, non-negative) weight
// vector w. It panics if w is empty or the total weight is not positive.
func (r *RNG) Categorical(w []float64) int {
	if len(w) == 0 {
		panic("randx: Categorical on empty weights")
	}
	total := 0.0
	for _, v := range w {
		if v < 0 {
			panic(fmt.Sprintf("randx: Categorical negative weight %g", v))
		}
		total += v
	}
	if total <= 0 {
		panic("randx: Categorical total weight must be positive")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }
