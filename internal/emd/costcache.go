package emd

import (
	"math"
	"reflect"

	"repro/internal/signature"
)

// Ground-cost amortization across solves.
//
// The detector and the pairwise tiles are saturated with repeated cost
// structure: every Detector.Push solves τ+τ′−1 EMDs against the same
// incoming signature, histogram/grid builders emit signatures whose
// support sets are bit-identical across every bag, and a pairwise tile
// revisits the same ≤2T resident signatures O(T) times. The cost matrix
// depends only on the two support-point sets and the ground function —
// never on the weights — so once a (src support, dst support) pair has
// been priced, re-evaluating the ground distances is pure waste.
//
// A CostCache keys lazily-filled cost matrices on a content hash of the
// filtered support points (collision-checked by bitwise comparison, so a
// hash collision degrades to a miss, never a wrong matrix). Rows are
// stored at the granularity the solver computes them — whole rows on
// block refills, single cells for the NW-corner basis costs — so a warm
// re-solve of the same supports performs ZERO ground evaluations, and a
// cold solve evaluates each cell once (a row fill reuses the basis cells
// already stored).
//
// The cache is bit-transparent: a stored value is the float the ground
// function returned, the solver replays the identical maxCost-tracking
// comparisons over served rows, and tolerance evolution therefore
// matches the uncached solve exactly. Cache on/off produces identical
// bits (property-tested and fuzzed), which is why the cache knob is NOT
// part of the engine snapshot fingerprint and must never bump
// core.SnapshotVersion.
//
// Correctness requires the ground function to be pure: identified by its
// code pointer (the same convention euclideanGround uses for dispatch),
// deterministic, and free of captured state that changes between calls.
// Attaching one solver+cache to closures that share a code pointer but
// differ in captured state is undefined; all repo consumers pass named
// package-level grounds.

// DefaultCostCacheSlots is the number of distinct support pairs a
// CostCache retains when attached with WithCostCache(0). The detector
// window and a pairwise tile are dominated by one (histogram/grid) or a
// handful (mixed) of support sets; four slots cover those with LRU
// headroom while keeping the worst-case footprint at 4·K² floats.
const DefaultCostCacheSlots = 4

// costEntry is one cached cost matrix: the fingerprint and a bitwise
// copy of the supports it was computed from (collision check), plus the
// m0×n0 real-cell matrix with per-row / per-cell fill flags. Dummy
// rows/columns are NOT cached — their layout depends on the mass
// balance of the particular pair, and they are zero-cost anyway.
type costEntry struct {
	used bool
	hash uint64
	tick uint64 // LRU clock value of the last acquire

	m0, n0, dim int
	pts         []float64 // filtered supports, src then dst, flattened

	cost     []float64 // m0×n0 ground costs, row-major
	rowDone  []bool    // row fully computed and stored
	cellDone []bool    // individual cells stored via basis-cost lookups
}

// CostCacheStats are cumulative whole-matrix lookup counters (the
// per-row/per-cell traffic is on SolverStats instead).
type CostCacheStats struct {
	// Hits counts acquires that found the support pair cached.
	Hits uint64
	// Misses counts acquires that had to start a fresh entry.
	Misses uint64
	// Evictions counts misses that displaced a live entry (LRU).
	Evictions uint64
	// Collisions counts hash matches rejected by the bitwise support
	// comparison — the collision check working, not a fault.
	Collisions uint64
}

// CostCache is a small LRU of ground-cost matrices keyed on signature
// supports, shared by every solve of the Solver it is attached to
// (WithCostCache, the only way to attach one). A one-slot fast path
// covers the stable-support builders (histogram, grid) where every
// lookup hits the same entry; the LRU covers mixed workloads.
//
// A CostCache is not safe for concurrent use — like the Solver it is
// attached to, give each worker its own.
type CostCache struct {
	slots  []costEntry
	last   *costEntry // fast path: entry served by the previous acquire
	tick   uint64
	ground uintptr // code pointer of the ground the entries were built with
	stats  CostCacheStats
}

// newCostCache returns a cache holding up to slots distinct support
// pairs; slots <= 0 selects DefaultCostCacheSlots.
func newCostCache(slots int) *CostCache {
	if slots <= 0 {
		slots = DefaultCostCacheSlots
	}
	return &CostCache{slots: make([]costEntry, slots)}
}

// Stats returns the cumulative lookup counters.
func (c *CostCache) Stats() CostCacheStats { return c.stats }

// Slots returns the cache capacity in support pairs.
func (c *CostCache) Slots() int { return len(c.slots) }

// Prewarm grows every slot's buffers to hold signatures of up to k
// support points with dim-dimensional centers, so a fresh solver's first
// cached Distance stores its matrix without allocating. Solver.Prewarm
// calls this with dim = 3 for an attached cache; higher-dimensional
// centers grow an entry's support buffer on its first store.
//
// A live entry whose buffers must be reallocated to reach the new size
// is dropped (grow* hands back fresh zeroed memory, not a copy), so a
// post-use Prewarm to a larger k degrades warm entries to misses — it
// never serves zeroed costs as if they were priced.
func (c *CostCache) Prewarm(k, dim int) {
	if k <= 0 || dim <= 0 {
		return
	}
	for i := range c.slots {
		e := &c.slots[i]
		grown := cap(e.pts) < 2*k*dim || cap(e.cost) < k*k ||
			cap(e.rowDone) < k || cap(e.cellDone) < k*k
		e.pts = growFloats(e.pts, 2*k*dim)
		e.cost = growFloats(e.cost, k*k)
		e.rowDone = growBools(e.rowDone, k)
		e.cellDone = growBools(e.cellDone, k*k)
		switch {
		case e.used && grown:
			// Reallocation zeroed the entry's contents: rowDone/cellDone
			// would still claim rows are priced while cost is all zeros.
			// Invalidate rather than corrupt.
			e.used = false
			if c.last == e {
				c.last = nil
			}
		case e.used:
			// Re-expose the live entry's views (grow* reslices).
			e.pts = e.pts[:(e.m0+e.n0)*e.dim]
			e.cost = e.cost[:e.m0*e.n0]
			e.rowDone = e.rowDone[:e.m0]
			e.cellDone = e.cellDone[:e.m0*e.n0]
		}
	}
}

// flush drops every entry (buffers are kept for reuse). Called when the
// ground function changes: entries computed under another ground are
// wrong for this one.
func (c *CostCache) flush() {
	for i := range c.slots {
		c.slots[i].used = false
	}
	c.last = nil
}

// acquire returns the entry for the filtered support pair, creating (and
// LRU-evicting) one on a miss. srcIdx/dstIdx select the >0-weight
// centers of s and t, exactly as staged by the solver. The returned
// entry's rowDone/cellDone flags say which parts are already priced.
func (c *CostCache) acquire(s, t signature.Signature, srcIdx, dstIdx []int, dim int, gp uintptr) *costEntry {
	if gp != c.ground {
		c.flush()
		c.ground = gp
	}
	m0, n0 := len(srcIdx), len(dstIdx)
	h := supportHash(s, t, srcIdx, dstIdx, dim)
	c.tick++

	// One-slot fast path: stable-support builders hit the same entry on
	// every acquire, skipping the slot scan entirely.
	if e := c.last; e != nil && e.used && e.hash == h && e.matches(s, t, srcIdx, dstIdx, dim) {
		e.tick = c.tick
		c.stats.Hits++
		return e
	}
	var victim *costEntry
	for i := range c.slots {
		e := &c.slots[i]
		if e.used && e.hash == h {
			if e.matches(s, t, srcIdx, dstIdx, dim) {
				e.tick = c.tick
				c.last = e
				c.stats.Hits++
				return e
			}
			c.stats.Collisions++
		}
		if victim == nil || (victim.used && (!e.used || e.tick < victim.tick)) {
			victim = e
		}
	}

	// Miss: rebuild the LRU victim in place, reusing its buffers.
	c.stats.Misses++
	if victim.used {
		c.stats.Evictions++
	}
	victim.used = true
	victim.hash = h
	victim.tick = c.tick
	victim.m0, victim.n0, victim.dim = m0, n0, dim
	victim.pts = growFloats(victim.pts, (m0+n0)*dim)
	p := 0
	for _, si := range srcIdx {
		p += copy(victim.pts[p:], s.Centers[si])
	}
	for _, dj := range dstIdx {
		p += copy(victim.pts[p:], t.Centers[dj])
	}
	victim.cost = growFloats(victim.cost, m0*n0)
	victim.rowDone = growBools(victim.rowDone, m0)
	for i := range victim.rowDone {
		victim.rowDone[i] = false
	}
	victim.cellDone = growBools(victim.cellDone, m0*n0)
	for i := range victim.cellDone {
		victim.cellDone[i] = false
	}
	c.last = victim
	return victim
}

// matches reports whether the entry was built from exactly these
// supports, comparing every center coordinate bitwise. This is the
// collision check behind the hash: O((m0+n0)·dim) per lookup, against
// the O(m0·n0) matrix it guards.
func (e *costEntry) matches(s, t signature.Signature, srcIdx, dstIdx []int, dim int) bool {
	if e.m0 != len(srcIdx) || e.n0 != len(dstIdx) || e.dim != dim {
		return false
	}
	p := 0
	for _, si := range srcIdx {
		for _, x := range s.Centers[si] {
			if math.Float64bits(e.pts[p]) != math.Float64bits(x) {
				return false
			}
			p++
		}
	}
	for _, dj := range dstIdx {
		for _, x := range t.Centers[dj] {
			if math.Float64bits(e.pts[p]) != math.Float64bits(x) {
				return false
			}
			p++
		}
	}
	return true
}

// supportHash is an FNV-1a content hash over the filtered support
// points (and the problem shape) of a pair. Cheap — one multiply and
// xor per coordinate — and only ever trusted together with the bitwise
// collision check in matches.
func supportHash(s, t signature.Signature, srcIdx, dstIdx []int, dim int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mix(uint64(len(srcIdx))<<32 | uint64(len(dstIdx)))
	mix(uint64(dim))
	for _, si := range srcIdx {
		for _, x := range s.Centers[si] {
			mix(math.Float64bits(x))
		}
	}
	for _, dj := range dstIdx {
		for _, x := range t.Centers[dj] {
			mix(math.Float64bits(x))
		}
	}
	return h
}

// groundPtr identifies a ground function by its code pointer (nil is
// normalized to Euclidean before the cache sees it).
func groundPtr(g Ground) uintptr {
	return reflect.ValueOf(g).Pointer()
}
