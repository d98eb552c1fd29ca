package emd

import (
	"fmt"
	"math"
)

// Block-pricing transportation simplex.
//
// Every EMD that does not take the 1-D closed form is solved here: a
// northwest-corner initial basis followed by MODI (u-v) pivoting, with
// Charnes' epsilon perturbation of the supplies preventing degenerate
// cycling (the perturbation is O(1e-10) of the total mass; its effect on
// the objective is far below the tolerances callers use).
//
//   - Pricing: Dantzig-style candidate-queue pricing over fixed-size row
//     blocks. Cost rows are computed lazily, a block at a time, the
//     first time pricing scans them — the matrix backing store is
//     reused solver scratch, but the O(K²) ground-distance evaluations
//     are deferred until pricing actually reaches each row. Each block
//     owns a queue of its rows' most negative cells (built by the
//     vectorized priceRow kernel); pivots drain the retained queues —
//     compacting cells the potentials have since priced out — before
//     any rescan, with a Cunningham-style cyclic cursor breaking exact
//     ties toward the least-recently-served block. A refill scans
//     blocks cyclically, RESUMING WHERE THE PREVIOUS REFILL STOPPED,
//     and stops after a target of m/4 refreshed rows instead of a full
//     sweep; only a refill that wraps through every block without
//     finding a negative reduced cost declares optimality, so the
//     certificate is still a full Dantzig sweep against the final
//     potentials. The northwest-corner basis cells are priced one cell
//     at a time into the matrix (their rows stay unready), so building
//     the initial basis costs O(m+n) ground evaluations rather than
//     forcing O(m·n) rows.
//
//   - Pivoting: the basis tree is kept ROOTED (parent arc and depth per
//     node), in the style of network-simplex implementations
//     with strongly feasible bases. The cycle closed by an entering
//     cell is found by walking the two endpoints up to their lowest
//     common ancestor — O(cycle length) — and the leaving arc detaches
//     a subtree that is re-hung from the entering arc with one BFS over
//     just that subtree, which simultaneously repairs parents, depths,
//     and the MODI potentials (every node in the detached subtree
//     shifts by the entering cell's reduced cost). Per-pivot cost is
//     O(cycle + detached subtree), not O(m+n).
//
// A periodic full rebuild keeps float drift in the incrementally
// updated potentials in check. Degenerate instances admit several
// optimal bases and the pricing order decides which one a solve settles
// on, so the conformance suite (fuzz_test.go, enum_test.go) checks cost
// equality against reference solvers rather than basis equality, and
// the pricing block size is held fixed wherever bit-identity is
// promised.

// solve runs the transportation simplex on the problem staged by
// prepare (or solveTransport). Σ supply must equal Σ demand (prepare
// balances with a dummy node). On success the optimal basis is left in
// basisI/basisJ/basisF and the objective Σ f·c over non-residue flows
// is returned.
func (sv *Solver) solve() (totalCost float64, err error) {
	defer sv.releaseLazy()
	m, n := sv.m, sv.n
	eps, nb, err := sv.stageSimplex()
	if err != nil {
		return 0, err
	}

	// Initial basis-cell costs: one lazy lookup per cell, never a full
	// row.
	for bi := 0; bi < nb; bi++ {
		if err := sv.lazyCost(sv.basisI[bi], sv.basisJ[bi]); err != nil {
			return 0, err
		}
	}

	if err := sv.buildTree(); err != nil {
		return 0, err
	}

	maxIters := 200 + 20*m*n
	for iter := 0; ; iter++ {
		if iter > maxIters {
			return 0, fmt.Errorf("emd: simplex did not converge in %d iterations (%dx%d)", maxIters, m, n)
		}
		if iter%128 == 127 {
			// Periodic full rebuild: the incremental potential shifts
			// accumulate rounding drift.
			if err := sv.buildTree(); err != nil {
				return 0, err
			}
		}
		enterI, enterJ, r, ok, perr := sv.priceBlocks()
		if perr != nil {
			return 0, perr
		}
		if !ok {
			break // optimal
		}
		sv.statPivots++
		if err := sv.pivot(enterI, enterJ, r); err != nil {
			return 0, err
		}
	}

	// Objective over the optimal basis; clamp perturbation-sized flows.
	clamp := eps * float64(m+n) * 4
	sv.eps = eps
	for bi := 0; bi < nb; bi++ {
		f := sv.basisF[bi]
		if f <= clamp {
			continue
		}
		totalCost += f * sv.cost[sv.basisI[bi]*n+sv.basisJ[bi]]
	}
	return totalCost, nil
}

// stageSimplex runs the head of every solve, on the problem staged in
// supply/demand/m/n: the balance check, the Charnes epsilon
// perturbation (in place — the buffers are re-staged per call), the
// northwest-corner initial basis, growth of the per-solve scratch, and
// the basis-tree adjacency build. It returns the perturbation eps (the
// caller derives its flow clamp from it) and the basis size m+n−1.
func (sv *Solver) stageSimplex() (eps float64, nb int, err error) {
	m, n := sv.m, sv.n
	sv.statPivots, sv.statRefillRows = 0, 0
	if m == 0 || n == 0 {
		return 0, 0, fmt.Errorf("emd: empty transportation problem (%dx%d)", m, n)
	}
	totS, totD := 0.0, 0.0
	for _, v := range sv.supply {
		totS += v
	}
	for _, v := range sv.demand {
		totD += v
	}
	if math.Abs(totS-totD) > 1e-9*math.Max(totS, totD)+1e-300 {
		return 0, 0, fmt.Errorf("emd: unbalanced problem: supply %g vs demand %g", totS, totD)
	}

	// Charnes perturbation: supply_i += eps, demand_last += m*eps.
	eps = totS * 1e-11
	if eps == 0 {
		eps = 1e-11
	}
	for i := range sv.supply {
		sv.supply[i] += eps
	}
	sv.demand[n-1] += float64(m) * eps

	// --- Northwest corner initial basis: exactly m+n-1 basic cells. ---
	nb = m + n - 1
	sv.basisI = growInts(sv.basisI, nb)
	sv.basisJ = growInts(sv.basisJ, nb)
	sv.basisF = growFloats(sv.basisF, nb)
	// Consume the (perturbed) supply/demand residuals destructively; they
	// are not needed after the initial basis is placed.
	ra, rb := sv.supply, sv.demand
	k := 0
	for i, j := 0, 0; ; {
		f := math.Min(ra[i], rb[j])
		if f < 0 {
			f = 0 // guard against rounding residue
		}
		if k >= nb {
			return 0, 0, fmt.Errorf("emd: internal: NW corner produced more than %d basic cells", nb)
		}
		sv.basisI[k], sv.basisJ[k], sv.basisF[k] = i, j, f
		k++
		ra[i] -= f
		rb[j] -= f
		if i == m-1 && j == n-1 {
			break
		}
		// Advance exactly one index per cell so the walk from (0,0) to
		// (m-1,n-1) yields exactly m+n-1 basic cells regardless of
		// floating-point wobble in the residuals.
		switch {
		case j == n-1:
			i++
		case i == m-1:
			j++
		case ra[i] <= rb[j]:
			i++
		default:
			j++
		}
	}
	if k != nb {
		return 0, 0, fmt.Errorf("emd: internal: NW corner produced %d basic cells, want %d", k, nb)
	}

	sv.growTreeScratch(m, n)

	// Build the basis-tree adjacency (intrusive linked lists) once;
	// pivots patch it incrementally.
	for i := 0; i < m; i++ {
		sv.rowHead[i] = -1
	}
	for j := 0; j < n; j++ {
		sv.colHead[j] = -1
	}
	for bi := 0; bi < nb; bi++ {
		i, j := sv.basisI[bi], sv.basisJ[bi]
		sv.rowNext[bi] = sv.rowHead[i]
		sv.rowHead[i] = bi
		sv.colNext[bi] = sv.colHead[j]
		sv.colHead[j] = bi
	}
	return eps, nb, nil
}

// growTreeScratch sizes the basis-tree buffers for an m×n problem: the
// adjacency lists, the potentials, the rooted-tree arrays, and the BFS
// queue and cycle path. Prewarm and stageSimplex share it so a
// prewarmed solver never grows anything mid-solve.
func (sv *Solver) growTreeScratch(m, n int) {
	nb := m + n - 1
	sv.rowHead = growInts(sv.rowHead, m)
	sv.colHead = growInts(sv.colHead, n)
	sv.rowNext = growInts(sv.rowNext, nb)
	sv.colNext = growInts(sv.colNext, nb)
	sv.u = growFloats(sv.u, m)
	sv.v = growFloats(sv.v, n)
	sv.uSet = growBools(sv.uSet, m)
	sv.vSet = growBools(sv.vSet, n)
	sv.parentArc = growInts(sv.parentArc, m+n)
	sv.depth = growInts(sv.depth, m+n)
	if cap(sv.queue) < m+n {
		sv.queue = make([]int, 0, m+n)
	}
	if cap(sv.path) < nb {
		sv.path = make([]int, 0, nb)
	}
}

// buildTree roots the basis tree at row 0 and computes, in one BFS over
// the adjacency lists, the parent-arc/depth structure and the MODI
// potentials u_i + v_j = c_ij (basis cells are always priced, so no
// lazy cost row is forced).
func (sv *Solver) buildTree() error {
	m, n := sv.m, sv.n
	for i := 0; i < m; i++ {
		sv.uSet[i] = false
	}
	for j := 0; j < n; j++ {
		sv.vSet[j] = false
	}
	sv.u[0], sv.uSet[0] = 0, true
	sv.parentArc[0], sv.depth[0] = -1, 0
	queue := sv.queue[:0]
	queue = append(queue, 0)
	for head := 0; head < len(queue); head++ {
		node := queue[head]
		if node < m {
			i := node
			ui := sv.u[i]
			d := sv.depth[i] + 1
			for bi := sv.rowHead[i]; bi != -1; bi = sv.rowNext[bi] {
				j := sv.basisJ[bi]
				if !sv.vSet[j] {
					sv.v[j] = sv.cost[i*n+j] - ui
					sv.vSet[j] = true
					sv.parentArc[m+j], sv.depth[m+j] = bi, d
					queue = append(queue, m+j)
				}
			}
		} else {
			j := node - m
			vj := sv.v[j]
			d := sv.depth[node] + 1
			for bi := sv.colHead[j]; bi != -1; bi = sv.colNext[bi] {
				i := sv.basisI[bi]
				if !sv.uSet[i] {
					sv.u[i] = sv.cost[i*n+j] - vj
					sv.uSet[i] = true
					sv.parentArc[i], sv.depth[i] = bi, d
					queue = append(queue, i)
				}
			}
		}
	}
	for i := 0; i < m; i++ {
		if !sv.uSet[i] {
			return fmt.Errorf("emd: internal: basis tree disconnected at row %d", i)
		}
	}
	for j := 0; j < n; j++ {
		if !sv.vSet[j] {
			return fmt.Errorf("emd: internal: basis tree disconnected at column %d", j)
		}
	}
	return nil
}

// pivot performs one simplex pivot on the rooted basis tree: the cycle
// through the entering cell (enterI, enterJ) is the tree path between
// its endpoints (found via depth-aligned walks to the lowest common
// ancestor), θ flows around it, and the leaving arc's detached subtree
// is re-hung from the entering arc by a single BFS that repairs
// parents, depths, and potentials together.
func (sv *Solver) pivot(enterI, enterJ int, r float64) error {
	m := sv.m
	jNode := m + enterJ

	// Tree path between enterI and jNode: walk the deeper endpoint up
	// until depths align, then both until they meet. The arcs from jNode
	// up to the LCA go straight into the cycle path; the arcs from
	// enterI up are staged in the BFS queue (idle until rehang) and
	// appended in reverse, so the cycle runs from the enterJ side to the
	// enterI side and its even positions are the −θ arcs.
	path := sv.path[:0]
	up := sv.queue[:0]
	a, b := enterI, jNode
	for sv.depth[a] > sv.depth[b] {
		up = append(up, sv.parentArc[a])
		a = sv.parent(a)
	}
	for sv.depth[b] > sv.depth[a] {
		path = append(path, sv.parentArc[b])
		b = sv.parent(b)
	}
	for a != b {
		up = append(up, sv.parentArc[a])
		a = sv.parent(a)
		path = append(path, sv.parentArc[b])
		b = sv.parent(b)
	}
	jSide := len(path)
	for q := len(up) - 1; q >= 0; q-- {
		path = append(path, up[q])
	}
	sv.path = path
	if len(path) == 0 {
		return fmt.Errorf("emd: internal: no cycle for entering cell (%d,%d)", enterI, enterJ)
	}
	theta := math.Inf(1)
	leave := -1
	leavePos := -1
	for p := 0; p < len(path); p += 2 {
		bi := path[p]
		if sv.basisF[bi] < theta {
			theta = sv.basisF[bi]
			leave = bi
			leavePos = p
		}
	}
	if leave == -1 {
		return fmt.Errorf("emd: internal: unbounded pivot")
	}
	for p, bi := range path {
		if p%2 == 0 {
			sv.basisF[bi] -= theta
			if sv.basisF[bi] < 0 {
				sv.basisF[bi] = 0 // rounding residue
			}
		} else {
			sv.basisF[bi] += theta
		}
	}

	// Swap the leaving cell for the entering one in the basis arrays and
	// adjacency lists.
	oldI, oldJ := sv.basisI[leave], sv.basisJ[leave]
	sv.removeRowArc(oldI, leave)
	sv.removeColArc(oldJ, leave)
	sv.basisI[leave], sv.basisJ[leave], sv.basisF[leave] = enterI, enterJ, theta
	sv.rowNext[leave] = sv.rowHead[enterI]
	sv.rowHead[enterI] = leave
	sv.colNext[leave] = sv.colHead[enterJ]
	sv.colHead[enterJ] = leave

	// Removing the leaving arc detached the subtree that contained
	// whichever entering endpoint reached the leaving arc on its walk:
	// positions < jSide lie on the enterJ side. Re-hang that subtree from
	// the entering arc and shift its potentials by ±r so
	// u[enterI] + v[enterJ] = c holds again; nodes outside it keep their
	// potentials.
	start, from := enterI, jNode
	rowShift, colShift := r, -r
	if leavePos < jSide {
		start, from = jNode, enterI
		rowShift, colShift = -r, r
	}
	sv.rehang(start, from, leave, rowShift, colShift)
	return nil
}

// parent returns the tree parent of non-root node x: the other end of
// its parent arc (a row's parent is a column node, a column's a row).
func (sv *Solver) parent(x int) int {
	arc := sv.parentArc[x]
	if x < sv.m {
		return sv.m + sv.basisJ[arc]
	}
	return sv.basisI[arc]
}

// rehang re-roots the detached subtree at node start, whose new parent
// is node from via basis arc arc, repairing parentArc/depth and shifting every subtree node's potential (rows by rowShift,
// columns by colShift) in one BFS. In a tree each node is reached
// exactly once, so skipping the arrival arc is the only visited check
// needed.
func (sv *Solver) rehang(start, from, arc int, rowShift, colShift float64) {
	m := sv.m
	sv.parentArc[start] = arc
	sv.depth[start] = sv.depth[from] + 1
	if start < m {
		sv.u[start] += rowShift
	} else {
		sv.v[start-m] += colShift
	}
	queue := sv.queue[:0]
	queue = append(queue, start)
	for head := 0; head < len(queue); head++ {
		node := queue[head]
		in := sv.parentArc[node]
		d := sv.depth[node] + 1
		if node < m {
			for bi := sv.rowHead[node]; bi != -1; bi = sv.rowNext[bi] {
				if bi == in {
					continue
				}
				nj := m + sv.basisJ[bi]
				sv.parentArc[nj], sv.depth[nj] = bi, d
				sv.v[sv.basisJ[bi]] += colShift
				queue = append(queue, nj)
			}
		} else {
			j := node - m
			for bi := sv.colHead[j]; bi != -1; bi = sv.colNext[bi] {
				if bi == in {
					continue
				}
				ni := sv.basisI[bi]
				sv.parentArc[ni], sv.depth[ni] = bi, d
				sv.u[ni] += rowShift
				queue = append(queue, ni)
			}
		}
	}
}

// priceBlocks picks the entering cell with per-block candidate-queue
// pricing. Each pricing block owns a queue of packed (row, col) cells —
// the most negative cell of each of its rows at that block's last
// refill. A drain re-prices every retained queue against the current
// potentials, compacting out cells that have gone non-negative, and
// enters the globally most negative survivor (Dantzig over the retained
// set), so candidates priced by an earlier refill but not pivoted are
// consumed across later pivots instead of being rediscovered by another
// sweep. Queues are visited cyclically from the drain cursor, which
// advances past the block that supplied the entering cell: among exactly
// equal reduced costs the least-recently-served block wins, a
// Cunningham-style rotation that (on top of the Charnes perturbation)
// keeps degenerate ties from revisiting the same rows.
//
// When the drain comes up dry, the refill scans blocks cyclically from
// the cursor left by the previous refill, computing rows lazily and
// rebuilding each scanned block's queue via the vectorized priceRow
// kernel, until it has both found a candidate and refreshed
// refillRowTarget rows. Only a refill that wraps through every block
// without a find returns ok=false — by then every row has been computed
// and freshly priced, so that is a full-sweep optimality certificate.
func (sv *Solver) priceBlocks() (enterI, enterJ int, r float64, ok bool, err error) {
	m, n := sv.m, sv.n
	tol := 1e-10 * (1 + sv.maxCost)
	bsz := sv.pricingBlock()
	nblk := (m + bsz - 1) / bsz

	// Drain the retained queues.
	bestI, bestJ, bestBlk := -1, -1, -1
	worst := -tol
	for scanned := 0; scanned < nblk; scanned++ {
		blk := sv.qCur + scanned
		if blk >= nblk {
			blk -= nblk
		}
		qn := sv.blkQn[blk]
		if qn == 0 {
			continue
		}
		q := sv.blkQ[blk*bsz : blk*bsz+qn]
		keep := 0
		for _, cell := range q {
			i := int(cell >> 32)
			j := int(cell & 0xffffffff)
			rc := sv.cost[i*n+j] - sv.u[i] - sv.v[j]
			if rc >= -tol {
				continue // stale under the current potentials: compact out
			}
			q[keep] = cell
			keep++
			if rc < worst {
				worst = rc
				bestI, bestJ, bestBlk = i, j, blk
			}
		}
		sv.blkQn[blk] = keep
	}
	if bestI >= 0 {
		sv.statCandReuse++
		sv.qCur = bestBlk + 1
		if sv.qCur >= nblk {
			sv.qCur = 0
		}
		return bestI, bestJ, worst, true, nil
	}

	// Refill: cyclic block scan resuming at the cursor. One block of
	// fresh candidates is rarely enough to keep the entering choices
	// steep — pivot counts blow up and eat the refill savings — so the
	// refill keeps scanning until it has both found a candidate and
	// refreshed refillRowTarget rows.
	target := sv.refillRowTarget()
	rowsScanned := 0
	for scanned := 0; scanned < nblk; scanned++ {
		blk := sv.blockCur + scanned
		if blk >= nblk {
			blk -= nblk
		}
		iLo := blk * bsz
		iHi := iLo + bsz
		if iHi > m {
			iHi = m
		}
		rowsScanned += iHi - iLo
		sv.statRefillRows += iHi - iLo
		q := sv.blkQ[blk*bsz:]
		qn := 0
		for i := iLo; i < iHi; i++ {
			if !sv.rowReady[i] {
				if err := sv.fillRow(i); err != nil {
					return 0, 0, 0, false, err
				}
			}
			// Newly computed rows can raise maxCost; keep the tolerance
			// in step so candidate acceptance matches the final sweep.
			tol = 1e-10 * (1 + sv.maxCost)
			rowJ, rowWorst := priceRow(sv.cost[i*n:(i+1)*n], sv.v[:n], sv.u[i], -tol)
			if rowJ < 0 {
				continue
			}
			q[qn] = int64(i)<<32 | int64(rowJ)
			qn++
			if bestI < 0 || rowWorst < worst {
				bestI, bestJ = i, rowJ
				worst = rowWorst
			}
		}
		sv.blkQn[blk] = qn
		if bestI >= 0 && rowsScanned >= target {
			// Resume the NEXT refill after this block, and rotate the
			// drain cursor past the block that supplied the entering cell.
			sv.blockCur = blk + 1
			if sv.blockCur >= nblk {
				sv.blockCur = 0
			}
			sv.qCur = bestI/bsz + 1
			if sv.qCur >= nblk {
				sv.qCur = 0
			}
			return bestI, bestJ, worst, true, nil
		}
	}
	if bestI < 0 {
		return 0, 0, 0, false, nil
	}
	// Candidates surfaced only while completing the wrap; the cursor
	// positions are immaterial because every block was just refreshed.
	return bestI, bestJ, worst, true, nil
}

// pricingBlock is the configured number of rows per pricing block.
func (sv *Solver) pricingBlock() int {
	if sv.priceB <= 0 {
		return DefaultPricingBlock
	}
	return sv.priceB
}

// refillRowTarget is the number of rows a refill refreshes before it
// stops (once it has at least one candidate): a quarter of the rows,
// floored at one block. Scanning less makes entering choices too
// shallow (pivot counts blow up); scanning everything is the full
// sweep block pricing exists to avoid.
func (sv *Solver) refillRowTarget() int {
	bsz := sv.pricingBlock()
	t := sv.m / 4
	if t < bsz {
		t = bsz
	}
	return t
}

// resetBlocks sizes and empties the per-block candidate queues and
// rewinds both pricing cursors for a fresh m-row solve. Block b's queue
// is the segment starting at b·bsz and holds at most one cell per row of
// the block, so m slots cover every segment.
func (sv *Solver) resetBlocks(m int) {
	bsz := sv.pricingBlock()
	nblk := (m + bsz - 1) / bsz
	sv.blkQ = growInt64s(sv.blkQ, m)
	sv.blkQn = growInts(sv.blkQn, nblk)
	for b := 0; b < nblk; b++ {
		sv.blkQn[b] = 0
	}
	sv.qCur, sv.blockCur = 0, 0
}

// removeRowArc unlinks basis entry bi from row i's adjacency list.
func (sv *Solver) removeRowArc(i, bi int) {
	if sv.rowHead[i] == bi {
		sv.rowHead[i] = sv.rowNext[bi]
		return
	}
	for p := sv.rowHead[i]; p != -1; p = sv.rowNext[p] {
		if sv.rowNext[p] == bi {
			sv.rowNext[p] = sv.rowNext[bi]
			return
		}
	}
}

// removeColArc unlinks basis entry bi from column j's adjacency list.
func (sv *Solver) removeColArc(j, bi int) {
	if sv.colHead[j] == bi {
		sv.colHead[j] = sv.colNext[bi]
		return
	}
	for p := sv.colHead[j]; p != -1; p = sv.colNext[p] {
		if sv.colNext[p] == bi {
			sv.colNext[p] = sv.colNext[bi]
			return
		}
	}
}

// solveTransport solves the balanced transportation problem
//
//	min Σ f_ij c_ij   s.t.  Σ_j f_ij = supply_i, Σ_i f_ij = demand_j, f >= 0
//
// and returns the optimal flow matrix and objective. It is the
// allocate-per-call wrapper over Solver for an explicit cost matrix:
// every row is staged ready, so basis costs are read from the matrix and
// no ground function is involved. Hot paths should hold a Solver (or
// call Distance/DistanceFlow, which pool them).
func solveTransport(supply, demand []float64, cost [][]float64) (flow [][]float64, totalCost float64, err error) {
	m, n := len(supply), len(demand)
	if m == 0 || n == 0 {
		return nil, 0, fmt.Errorf("emd: empty transportation problem (%dx%d)", m, n)
	}
	sv := solverPool.Get().(*Solver)
	defer solverPool.Put(sv)
	sv.m, sv.n = m, n
	sv.supply = growFloats(sv.supply, m)
	copy(sv.supply, supply)
	sv.demand = growFloats(sv.demand, n)
	copy(sv.demand, demand)
	sv.cost = growFloats(sv.cost, m*n)
	sv.rowReady = growBools(sv.rowReady, m)
	maxCost := 0.0
	for i := 0; i < m; i++ {
		if len(cost[i]) != n {
			return nil, 0, fmt.Errorf("emd: cost row %d has %d columns, want %d", i, len(cost[i]), n)
		}
		copy(sv.cost[i*n:(i+1)*n], cost[i])
		for _, c := range cost[i] {
			if c > maxCost {
				maxCost = c
			}
		}
		sv.rowReady[i] = true
	}
	sv.maxCost = maxCost
	sv.cEnt = nil
	sv.resetBlocks(m)
	totalCost, err = sv.solve()
	if err != nil {
		return nil, 0, err
	}
	flow = make([][]float64, m)
	for i := range flow {
		flow[i] = make([]float64, n)
	}
	clamp := sv.flowClamp()
	for k := range sv.basisF {
		if f := sv.basisF[k]; f > clamp {
			flow[sv.basisI[k]][sv.basisJ[k]] = f
		}
	}
	return flow, totalCost, nil
}
