// Package cluster implements the vector quantizers used to build bag
// signatures (§3.1 of the paper): k-means with k-means++ seeding,
// k-medoids by Voronoi iteration, and an online competitive-learning
// quantizer in the spirit of (unsupervised) learning vector quantization.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/randx"
	"repro/internal/vec"
)

// Result holds the output of a quantizer: K centers, the assignment of
// every input point to a center, and the per-center counts.
type Result struct {
	Centers [][]float64
	Assign  []int
	Counts  []int
	// Inertia is the total squared distance from points to their centers.
	Inertia float64
	// Iters is the number of refinement iterations performed.
	Iters int
}

// Config controls the iterative quantizers.
type Config struct {
	// MaxIters bounds Lloyd/Voronoi iterations (default 50).
	MaxIters int
	// Tol stops iterating when the relative inertia improvement drops
	// below it (default 1e-6).
	Tol float64
}

func (c Config) withDefaults() Config {
	if c.MaxIters <= 0 {
		c.MaxIters = 50
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	return c
}

// KMeans clusters points into at most k clusters with Lloyd's algorithm
// seeded by k-means++. If there are fewer than k distinct points, fewer
// clusters are returned. It returns an error for k < 1, empty input, or
// points of differing dimension. It runs on a fresh Workspace; callers
// that cluster many bags keep one Workspace and call its KMeans method
// instead, which allocates nothing once warm.
func KMeans(points [][]float64, k int, cfg Config, rng *randx.RNG) (*Result, error) {
	var w Workspace
	if err := w.KMeans(points, k, cfg, rng); err != nil {
		return nil, err
	}
	centers := make([][]float64, len(w.Counts))
	for c := range centers {
		centers[c] = w.Centers[c*w.Dim : (c+1)*w.Dim : (c+1)*w.Dim]
	}
	return &Result{Centers: centers, Assign: w.Assign, Counts: w.Counts, Inertia: w.Inertia, Iters: w.Iters}, nil
}

// Workspace holds the scratch of a k-means run and its output. Its
// buffers grow to the largest input seen and are reused, so a warm
// Workspace clusters without allocating. The zero value is ready to
// use; a Workspace is not safe for concurrent use.
type Workspace struct {
	// Centers holds the centers of the last run, row-major: center c
	// is Centers[c*Dim : (c+1)*Dim]. Empty clusters are already dropped.
	Centers []float64
	// Counts holds the number of points assigned to each center; its
	// length is the number of centers.
	Counts []int
	// Assign maps every input point to its center.
	Assign []int
	// Dim is the dimension of the points and centers.
	Dim int
	// Inertia is the total squared distance from points to their centers.
	Inertia float64
	// Iters is the number of refinement iterations performed.
	Iters int

	next  []float64 // k·d centers being accumulated by the update step
	d2    []float64 // k-means++ D² weight of every point
	remap []int     // old → new center index while dropping empty clusters
}

// KMeans clusters points as the package-level KMeans does and leaves
// the result in the Workspace's exported fields, valid until the next
// call.
func (w *Workspace) KMeans(points [][]float64, k int, cfg Config, rng *randx.RNG) error {
	if k < 1 {
		return fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if len(points) == 0 {
		return fmt.Errorf("cluster: no points to cluster")
	}
	n, d := len(points), len(points[0])
	for i, p := range points {
		if len(p) != d {
			return fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), d)
		}
	}
	cfg = cfg.withDefaults()
	if k > n {
		k = n
	}
	w.Dim = d
	w.Centers = grow(w.Centers, k*d)
	w.next = grow(w.next, k*d)
	w.d2 = grow(w.d2, n)
	w.Assign = grow(w.Assign, n)
	w.Counts = grow(w.Counts, k)
	w.remap = grow(w.remap, k)

	k = w.seedPlusPlus(points, k, rng) // may shrink when points collide

	prevInertia := math.Inf(1)
	iters := 0
	for ; iters < cfg.MaxIters; iters++ {
		inertia := w.assign(points, k)
		// Update step: sum each cluster's points in input order, then
		// scale by the reciprocal count.
		next := w.next[:k*d]
		clear(next)
		for i, p := range points {
			dst := next[w.Assign[i]*d:][:d]
			for j, v := range p {
				dst[j] += v
			}
		}
		for c := 0; c < k; c++ {
			dst := next[c*d : (c+1)*d]
			if w.Counts[c] == 0 {
				// Empty cluster: reseat at the point farthest from its
				// current center to keep K clusters alive.
				far, farD := 0, -1.0
				for i, p := range points {
					a := w.Assign[i] * d
					if dd := sqDist(p, w.Centers[a:a+d]); dd > farD {
						far, farD = i, dd
					}
				}
				copy(dst, points[far])
				continue
			}
			inv := 1 / float64(w.Counts[c])
			for j := range dst {
				dst[j] *= inv
			}
		}
		w.Centers, w.next = w.next, w.Centers
		// Known defect, kept for bit stability: prevInertia starts at +Inf, so this holds on the first pass and Iters is always 1.
		if prevInertia-inertia <= cfg.Tol*math.Max(prevInertia, 1e-300) {
			iters++
			break
		}
		prevInertia = inertia
	}

	// Final assignment against the last centers.
	w.Inertia = w.assign(points, k)
	w.Iters = iters
	w.dropEmpty(k)
	return nil
}

// seedPlusPlus chooses the initial centers by the k-means++ D²
// weighting and returns how many it chose: duplicate points may yield
// fewer than k.
func (w *Workspace) seedPlusPlus(points [][]float64, k int, rng *randx.RNG) int {
	d := w.Dim
	copy(w.Centers[:d], points[rng.Intn(len(points))])
	for i, p := range points {
		w.d2[i] = sqDist(p, w.Centers[:d])
	}
	nc := 1
	for nc < k {
		if vec.Sum(w.d2) <= 0 {
			break // all remaining points coincide with a center
		}
		ctr := w.Centers[nc*d : (nc+1)*d]
		copy(ctr, points[rng.Categorical(w.d2)])
		nc++
		for i, p := range points {
			if dd := sqDist(p, ctr); dd < w.d2[i] {
				w.d2[i] = dd
			}
		}
	}
	return nc
}

// assign maps every point to its nearest of the first k centers (ties
// to the lower index), recounts the clusters and returns the inertia.
func (w *Workspace) assign(points [][]float64, k int) float64 {
	d := w.Dim
	centers, counts := w.Centers[:k*d], w.Counts[:k]
	clear(counts)
	inertia := 0.0
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if dd := sqDist(p, centers[c*d:(c+1)*d]); dd < bestD {
				best, bestD = c, dd
			}
		}
		w.Assign[i] = best
		counts[best]++
		inertia += bestD
	}
	return inertia
}

// dropEmpty removes the zero-count centers among the first k (possible
// after degenerate inputs), compacting Centers and Counts in place and
// renumbering Assign.
func (w *Workspace) dropEmpty(k int) {
	d := w.Dim
	kept := 0
	for c := 0; c < k; c++ {
		if w.Counts[c] == 0 {
			w.remap[c] = -1
			continue
		}
		w.remap[c] = kept
		copy(w.Centers[kept*d:(kept+1)*d], w.Centers[c*d:(c+1)*d])
		w.Counts[kept] = w.Counts[c]
		kept++
	}
	if kept < k {
		for i, a := range w.Assign {
			w.Assign[i] = w.remap[a]
		}
	}
	w.Centers, w.Counts = w.Centers[:kept*d], w.Counts[:kept]
}

// sqDist is vec.SqDist2 for operands the caller has already checked to
// have equal length.
func sqDist(p, c []float64) float64 {
	c = c[:len(p)]
	s := 0.0
	for j, v := range p {
		dd := v - c[j]
		s += dd * dd
	}
	return s
}

// grow returns s resliced to length n, reallocating only when its
// capacity is too small. The contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
