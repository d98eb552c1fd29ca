package cluster

import (
	"fmt"
	"math"

	"repro/internal/randx"
	"repro/internal/vec"
)

// KMedoids clusters points into at most k clusters using Voronoi
// iteration (assign to nearest medoid, then move each medoid to the
// in-cluster point minimizing the total distance). Medoids are actual
// data points, which makes the quantizer robust to outliers; the paper
// lists k-medoids as one of the admissible signature builders.
func KMedoids(points [][]float64, k int, cfg Config, rng *randx.RNG) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points to cluster")
	}
	cfg = cfg.withDefaults()
	if k > len(points) {
		k = len(points)
	}

	// Seed with k-means++ then snap each seed to its nearest data point
	// (seeds are data points already, so this is exact).
	medoidIdx := seedMedoids(points, k, rng)
	k = len(medoidIdx)

	assign := make([]int, len(points))
	counts := make([]int, k)
	prevCost := math.Inf(1)
	iters := 0
	for ; iters < cfg.MaxIters; iters++ {
		// Assignment.
		cost := 0.0
		for i := range counts {
			counts[i] = 0
		}
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, mi := range medoidIdx {
				if d := vec.Dist2(p, points[mi]); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			counts[best]++
			cost += bestD
		}
		// Medoid update: exhaustive within each cluster.
		changed := false
		for c := range medoidIdx {
			var member []int
			for i, a := range assign {
				if a == c {
					member = append(member, i)
				}
			}
			if len(member) == 0 {
				continue
			}
			best, bestCost := medoidIdx[c], math.Inf(1)
			for _, cand := range member {
				s := 0.0
				for _, m := range member {
					s += vec.Dist2(points[cand], points[m])
				}
				if s < bestCost {
					best, bestCost = cand, s
				}
			}
			if best != medoidIdx[c] {
				medoidIdx[c] = best
				changed = true
			}
		}
		// Known defect, kept for bit stability: prevCost starts at +Inf, so a pass that moved a medoid stops here too and Iters is always 1.
		if !changed || prevCost-cost <= cfg.Tol*math.Max(prevCost, 1e-300) {
			iters++
			break
		}
		prevCost = cost
	}

	// Final assignment and inertia (squared distances, for comparability
	// with KMeans).
	inertia := 0.0
	for i := range counts {
		counts[i] = 0
	}
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, mi := range medoidIdx {
			if d := vec.SqDist2(p, points[mi]); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		counts[best]++
		inertia += bestD
	}
	centers := make([][]float64, k)
	for c, mi := range medoidIdx {
		centers[c] = vec.Clone(points[mi])
	}
	return dropEmpty(&Result{Centers: centers, Assign: assign, Counts: counts, Inertia: inertia, Iters: iters}), nil
}

// dropEmpty removes zero-count centers (possible after degenerate inputs)
// and renumbers assignments.
func dropEmpty(r *Result) *Result {
	remap := make([]int, len(r.Centers))
	var centers [][]float64
	var counts []int
	for c := range r.Centers {
		if r.Counts[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = len(centers)
		centers = append(centers, r.Centers[c])
		counts = append(counts, r.Counts[c])
	}
	for i, a := range r.Assign {
		r.Assign[i] = remap[a]
	}
	r.Centers, r.Counts = centers, counts
	return r
}

func seedMedoids(points [][]float64, k int, rng *randx.RNG) []int {
	idx := make([]int, 0, k)
	first := rng.Intn(len(points))
	idx = append(idx, first)
	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = vec.SqDist2(p, points[first])
	}
	for len(idx) < k {
		if vec.Sum(d2) <= 0 {
			break
		}
		next := rng.Categorical(d2)
		idx = append(idx, next)
		for i, p := range points {
			if d := vec.SqDist2(p, points[next]); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return idx
}

// Online is a streaming competitive-learning quantizer (unsupervised
// LVQ-style): each arriving point pulls its nearest center toward itself
// with a decaying learning rate. It matches the paper's mention of
// learning vector quantization as a signature builder and allows building
// signatures in one pass over very large bags.
type Online struct {
	Centers [][]float64
	Counts  []int
	rate0   float64
}

// NewOnline creates an online quantizer with k centers seeded from the
// first k distinct points pushed into it. rate0 is the initial learning
// rate (0 < rate0 <= 1, default 0.5 if out of range).
func NewOnline(k int, rate0 float64) *Online {
	if rate0 <= 0 || rate0 > 1 {
		rate0 = 0.5
	}
	return &Online{Centers: make([][]float64, 0, k), Counts: make([]int, 0, k), rate0: rate0}
}

// Push feeds one point into the quantizer.
func (o *Online) Push(p []float64) {
	if len(o.Centers) < cap(o.Centers) {
		for _, c := range o.Centers {
			if vec.SqDist2(c, p) == 0 {
				// Duplicate of an existing seed: treat as a regular update.
				o.update(p)
				return
			}
		}
		o.Centers = append(o.Centers, vec.Clone(p))
		o.Counts = append(o.Counts, 1)
		return
	}
	o.update(p)
}

func (o *Online) update(p []float64) {
	best, bestD := 0, math.Inf(1)
	for c, ctr := range o.Centers {
		if d := vec.SqDist2(p, ctr); d < bestD {
			best, bestD = c, d
		}
	}
	o.Counts[best]++
	// Harmonic decay gives the online k-means (MacQueen) update.
	eta := o.rate0 / (1 + o.rate0*float64(o.Counts[best]-1))
	ctr := o.Centers[best]
	for j := range ctr {
		ctr[j] += eta * (p[j] - ctr[j])
	}
}

// Result converts the online state into a Result. Assign is re-derived
// from the provided points (pass nil to skip assignment).
func (o *Online) Result(points [][]float64) *Result {
	r := &Result{Centers: o.Centers, Counts: append([]int(nil), o.Counts...)}
	if points != nil {
		r.Assign = make([]int, len(points))
		r.Counts = make([]int, len(o.Centers))
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range o.Centers {
				if d := vec.SqDist2(p, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			r.Assign[i] = best
			r.Counts[best]++
			r.Inertia += bestD
		}
	}
	return r
}
