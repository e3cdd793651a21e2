package path

import (
	"container/heap"
	"context"
	"math"
)

// Adaptive coarse-to-fine refinement: instead of solving a dense grid slab,
// solve a coarse sub-lattice, rank the cells it induces by an objective, and
// recursively subdivide only the most promising cells until the dense-grid
// argmax is pinned down — the solve count then scales with the surface's
// peak structure, not with the grid. The machinery here is pure index
// bookkeeping over the dense grid, shared by the (p, q, µ) sweep and the
// duopoly price plane; the caller supplies the solving and the objective.
//
// Determinism contract: the refinement frontier is a heap ordered by
// (score desc, cell origin rank asc, cell corner rank asc) — a total order
// on cells — the per-round batch is cut by fixed configuration (never the
// worker count), and every point batch is handed to the caller as an ordered
// list of warm chains whose contents depend only on prior rounds. A caller
// that solves chains deterministically (the Run/RunOrdered pools) therefore
// produces bit-identical results at any worker count.

// AdaptiveConfig bounds one adaptive refinement run.
type AdaptiveConfig struct {
	// Coarse is the target sample count per axis of the initial lattice,
	// endpoints included; values below 2 select DefaultCoarse. Axes shorter
	// than Coarse are sampled densely. When the resulting lattice would
	// consume over half the point budget, the sampling shrinks (down to
	// endpoints only) so refinement always keeps headroom.
	Coarse int
	// Budget caps the total number of dense points solved (coarse lattice
	// included). Non-positive or over-grid values select the dense size —
	// the refinement then stops only when the frontier converges.
	Budget int
	// MaxDepth bounds the number of refinement rounds; non-positive means
	// unbounded (the budget and frontier convergence stop the run).
	MaxDepth int
	// BatchCells is the number of cells subdivided per refinement round;
	// non-positive selects DefaultBatchCells. A fixed batch — never derived
	// from the worker count — keeps the refinement trajectory deterministic.
	BatchCells int
	// SegmentLen is the warm-chain cut of the coarse-lattice solve;
	// non-positive selects DefaultSegmentLen.
	SegmentLen int
}

// DefaultCoarse is the per-axis sample count of the initial lattice: five
// samples bracket a smooth peak while costing 5^d of the dense solve.
const DefaultCoarse = 5

// DefaultBatchCells is the per-round subdivision width: refining the top
// four cells per round covers a peak cell and its neighbors (which share
// the peak corner and therefore tie its score) in one round.
const DefaultBatchCells = 4

// AdaptiveStats reports what one Adaptive run did.
type AdaptiveStats struct {
	Solved   int // dense points solved, coarse lattice included
	Dense    int // dense grid size (the slab a full sweep would solve)
	Rounds   int // refinement rounds after the coarse stage
	Cells    int // cells subdivided
	BestRank int // row-major dense rank of the argmax; -1 if no finite score
}

// Adaptive drives a coarse-to-fine argmax search over a dense grid with the
// given axis sizes (outermost first, matching Plan). It calls
//
//   - solve(chains) with batches of warm chains — chain[i] is an ordered
//     list of dense-grid coordinates (outermost first) to solve
//     sequentially, each chain cold-starting its first point; chains within
//     a batch are disjoint and independently solvable in parallel;
//   - score(rank) for the objective value of a previously solved point, by
//     row-major dense rank. Non-finite scores never win.
//
// The search solves the coarse lattice (as snake chains over the sub-grid
// plan), then repeatedly pops the highest-scored refinable cells and solves
// their subdivision midpoints, until the frontier has no cell tying the
// best solved objective, the budget is exhausted, or MaxDepth is reached.
// Ties on the objective resolve to the lowest row-major rank, matching the
// slab argmax. Adaptive is AdaptiveCtx under context.Background(): never
// cancelled.
func Adaptive(dims []int, cfg AdaptiveConfig, solve func(chains [][][]int) error, score func(rank int) float64) (AdaptiveStats, error) {
	return AdaptiveCtx(context.Background(), dims, cfg, solve, score)
}

// AdaptiveCtx is Adaptive with cooperative cancellation at batch boundaries:
// ctx.Err() is checked before the coarse-lattice solve and before each
// refinement round's batch solve — never inside one — so an uncancelled run
// is bit-identical to Adaptive and a cancelled run stops issuing batches and
// returns ctx.Err() with the stats accumulated so far. A cancel during the
// final batch, after which the search has converged, is not reported: the
// search is complete and AdaptiveCtx returns its stats and nil. Callers
// that solve each batch through RunCtx get the finer per-segment
// cancellation too.
func AdaptiveCtx(ctx context.Context, dims []int, cfg AdaptiveConfig, solve func(chains [][][]int) error, score func(rank int) float64) (AdaptiveStats, error) {
	dense := 1
	for _, d := range dims {
		dense *= d
	}
	stats := AdaptiveStats{Dense: dense, BestRank: -1}
	if dense <= 0 {
		return stats, nil
	}
	coarse := cfg.Coarse
	if coarse < 2 {
		coarse = DefaultCoarse
	}
	budget := cfg.Budget
	if budget <= 0 || budget > dense {
		budget = dense
	}
	batch := cfg.BatchCells
	if batch <= 0 {
		batch = DefaultBatchCells
	}

	// A budget below twice the coarse lattice would burn most (or all) of
	// its points on a snake-order-truncated lattice and leave refinement
	// little to work with — shrink the per-axis sampling first, so even a
	// tight budget buys a complete (if coarser) lattice plus refinement
	// headroom. Depends only on dims and budget, never the worker count.
	for coarse > 2 && 2*latticeSize(dims, coarse) > budget {
		coarse--
	}

	// Per-axis coarse sample indices, endpoints included.
	axes := make([][]int, len(dims))
	for j, d := range dims {
		axes[j] = coarseAxis(d, coarse)
	}

	g := &adaptiveGrid{dims: dims, solved: make(map[int]bool)}

	// Coarse stage: solve the sample lattice as snake chains over the
	// sub-grid plan, so the warm chains walk lattice neighbors exactly as a
	// dense sweep walks grid neighbors.
	subDims := make([]int, len(axes))
	for j := range axes {
		subDims[j] = len(axes[j])
	}
	sub := New(subDims, cfg.SegmentLen)
	latticeChains := make([][][]int, 0, sub.Chains())
	idx := make([]int, len(dims))
	for _, sg := range sub.Segments() {
		chain := make([][]int, 0, sg[1]-sg[0])
		for k := sg[0]; k < sg[1] && len(g.solved) < budget; k++ {
			sub.Coords(k, idx)
			coords := make([]int, len(dims))
			for j := range coords {
				coords[j] = axes[j][idx[j]]
			}
			if g.claim(coords) {
				chain = append(chain, coords)
			}
		}
		if len(chain) > 0 {
			latticeChains = append(latticeChains, chain)
		}
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	if err := solve(latticeChains); err != nil {
		return stats, err
	}
	stats.Solved = len(g.solved)
	best := g.refreshBest(latticeChains, score, bestState{rank: -1, v: math.Inf(-1)})

	// Initial frontier: every cell of the coarse lattice, scored by its
	// solved corners.
	frontier := &cellHeap{}
	for _, c := range latticeCells(axes) {
		g.push(frontier, c, score)
	}

	for frontier.Len() > 0 && len(g.solved) < budget {
		if cfg.MaxDepth > 0 && stats.Rounds >= cfg.MaxDepth {
			break
		}
		// Convergence: refine only cells that still tie the best solved
		// objective — once the region around the argmax is resolved to
		// span 1, no refinable cell can reach the best score and the search
		// stops on its own, well under any budget.
		var work []cell
		var chains [][][]int
		pending := 0
		for len(work) < batch && frontier.Len() > 0 && len(g.solved)+pending < budget {
			top := (*frontier)[0]
			if top.score < best.v && best.rank >= 0 {
				break
			}
			heap.Pop(frontier)
			chain := g.splitChain(top, budget-len(g.solved)-pending)
			if len(chain) == 0 {
				continue
			}
			pending += len(chain)
			work = append(work, top)
			chains = append(chains, chain)
		}
		if len(chains) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if err := solve(chains); err != nil {
			return stats, err
		}
		stats.Rounds++
		stats.Cells += len(work)
		stats.Solved = len(g.solved)
		best = g.refreshBest(chains, score, best)
		for _, c := range work {
			for _, child := range g.children(c) {
				g.push(frontier, child, score)
			}
		}
	}
	stats.Solved = len(g.solved)
	stats.BestRank = best.rank
	return stats, nil
}

// latticeSize is the point count of the coarse sample lattice at k
// samples per axis (short axes sample densely, so each contributes
// min(k, n) points).
func latticeSize(dims []int, k int) int {
	n := 1
	for _, d := range dims {
		n *= len(coarseAxis(d, k))
	}
	return n
}

// coarseAxis returns k evenly spread indices on [0, n-1], endpoints
// included, deduplicated and sorted; n short axes are sampled densely.
func coarseAxis(n, k int) []int {
	if k > n {
		k = n
	}
	if n <= 1 || k <= 1 {
		return []int{0}
	}
	out := make([]int, 0, k)
	prev := -1
	for i := 0; i < k; i++ {
		// Round-to-nearest of i·(n-1)/(k-1) without float rounding drift.
		v := (i*(n-1) + (k-1)/2) / (k - 1)
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// cell is one axis-aligned index window of the dense grid: the per-axis
// inclusive interval [lo[j], hi[j]].
type cell struct {
	lo, hi []int
	score  float64
	// loRank and hiRank order tied cells deterministically: the row-major
	// ranks of the two defining corners.
	loRank, hiRank int
}

// adaptiveGrid is the bookkeeping state of one Adaptive run.
type adaptiveGrid struct {
	dims   []int
	solved map[int]bool // row-major rank → claimed for solving
}

// rank returns the row-major rank of dense coordinates.
func (g *adaptiveGrid) rank(coords []int) int {
	r := 0
	for j, d := range g.dims {
		r = r*d + coords[j]
	}
	return r
}

// claim marks a point as scheduled for solving; false if already claimed.
func (g *adaptiveGrid) claim(coords []int) bool {
	r := g.rank(coords)
	if g.solved[r] {
		return false
	}
	g.solved[r] = true
	return true
}

type bestState struct {
	rank int
	v    float64
}

// refreshBest folds the newly solved chains into the running argmax in
// deterministic chain/point order; ties resolve to the lowest rank.
func (g *adaptiveGrid) refreshBest(chains [][][]int, score func(rank int) float64, best bestState) bestState {
	for _, chain := range chains {
		for _, coords := range chain {
			r := g.rank(coords)
			v := score(r)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if best.rank < 0 || v > best.v || (v == best.v && r < best.rank) {
				best = bestState{rank: r, v: v}
			}
		}
	}
	return best
}

// push scores a cell by its solved corners and adds it to the frontier.
// Cells with no finite corner score are dropped: nothing ranks them.
func (g *adaptiveGrid) push(h *cellHeap, c cell, score func(rank int) float64) {
	s := math.Inf(-1)
	finite := false
	g.eachCorner(c, func(r int) {
		if !g.solved[r] {
			return
		}
		v := score(r)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		finite = true
		if v > s {
			s = v
		}
	})
	if !finite {
		return
	}
	c.score = s
	c.loRank = g.rank(c.lo)
	c.hiRank = g.rank(c.hi)
	heap.Push(h, c)
}

// eachCorner visits the row-major ranks of all 2^d corners of a cell in a
// fixed (binary-counter) order.
func (g *adaptiveGrid) eachCorner(c cell, visit func(rank int)) {
	d := len(g.dims)
	coords := make([]int, d)
	for mask := 0; mask < 1<<d; mask++ {
		for j := 0; j < d; j++ {
			if mask&(1<<j) != 0 {
				coords[j] = c.hi[j]
			} else {
				coords[j] = c.lo[j]
			}
		}
		visit(g.rank(coords))
	}
}

// splitChain plans the subdivision solve of a cell: the unsolved points of
// the per-axis {lo, mid, hi} sample cross product, walked in snake order so
// the chain warm-starts neighbor to neighbor, claimed as it is built. The
// chain is truncated to at most limit points (budget trimming); truncated
// points stay unclaimed for a later round.
func (g *adaptiveGrid) splitChain(c cell, limit int) [][]int {
	samples, refinable := g.splitSamples(c)
	if !refinable || limit <= 0 {
		return nil
	}
	local := make([]int, len(samples))
	for j := range samples {
		local[j] = len(samples[j])
	}
	sub := New(local, 0)
	idx := make([]int, len(local))
	chain := make([][]int, 0, sub.Len())
	for k := 0; k < sub.Len(); k++ {
		sub.Coords(k, idx)
		coords := make([]int, len(samples))
		for j := range coords {
			coords[j] = samples[j][idx[j]]
		}
		if g.claim(coords) {
			chain = append(chain, coords)
			if len(chain) >= limit {
				break
			}
		}
	}
	return chain
}

// splitSamples returns the per-axis sample sets {lo, mid, hi} of a cell's
// subdivision (mid only where the span admits one), and whether any axis is
// refinable at all (span ≥ 2).
func (g *adaptiveGrid) splitSamples(c cell) ([][]int, bool) {
	samples := make([][]int, len(c.lo))
	refinable := false
	for j := range c.lo {
		lo, hi := c.lo[j], c.hi[j]
		if hi-lo >= 2 {
			refinable = true
			samples[j] = []int{lo, (lo + hi) / 2, hi}
		} else if hi > lo {
			samples[j] = []int{lo, hi}
		} else {
			samples[j] = []int{lo}
		}
	}
	return samples, refinable
}

// children returns the subdivided cells of c: the cross product of the
// per-axis sub-intervals induced by the split samples.
func (g *adaptiveGrid) children(c cell) []cell {
	samples, refinable := g.splitSamples(c)
	if !refinable {
		return nil
	}
	// Per-axis interval lists: consecutive sample pairs, or the degenerate
	// single-point interval.
	type iv struct{ lo, hi int }
	axes := make([][]iv, len(samples))
	count := 1
	for j, s := range samples {
		if len(s) == 1 {
			axes[j] = []iv{{s[0], s[0]}}
		} else {
			ivs := make([]iv, 0, len(s)-1)
			for i := 0; i+1 < len(s); i++ {
				ivs = append(ivs, iv{s[i], s[i+1]})
			}
			axes[j] = ivs
		}
		count *= len(axes[j])
	}
	out := make([]cell, 0, count)
	pick := make([]int, len(axes))
	for {
		ch := cell{lo: make([]int, len(axes)), hi: make([]int, len(axes))}
		for j := range axes {
			ch.lo[j] = axes[j][pick[j]].lo
			ch.hi[j] = axes[j][pick[j]].hi
		}
		out = append(out, ch)
		j := len(axes) - 1
		for j >= 0 {
			pick[j]++
			if pick[j] < len(axes[j]) {
				break
			}
			pick[j] = 0
			j--
		}
		if j < 0 {
			break
		}
	}
	return out
}

// latticeCells enumerates the cells of the coarse lattice: the cross
// product of consecutive sample intervals per axis.
func latticeCells(axes [][]int) []cell {
	type iv struct{ lo, hi int }
	ivAxes := make([][]iv, len(axes))
	for j, s := range axes {
		if len(s) == 1 {
			ivAxes[j] = []iv{{s[0], s[0]}}
			continue
		}
		ivs := make([]iv, 0, len(s)-1)
		for i := 0; i+1 < len(s); i++ {
			ivs = append(ivs, iv{s[i], s[i+1]})
		}
		ivAxes[j] = ivs
	}
	var out []cell
	pick := make([]int, len(ivAxes))
	for {
		c := cell{lo: make([]int, len(ivAxes)), hi: make([]int, len(ivAxes))}
		for j := range ivAxes {
			c.lo[j] = ivAxes[j][pick[j]].lo
			c.hi[j] = ivAxes[j][pick[j]].hi
		}
		out = append(out, c)
		j := len(ivAxes) - 1
		for j >= 0 {
			pick[j]++
			if pick[j] < len(ivAxes[j]) {
				break
			}
			pick[j] = 0
			j--
		}
		if j < 0 {
			break
		}
	}
	return out
}

// cellHeap is a deterministic max-heap of frontier cells: higher score
// first, ties by lower origin rank, then lower far-corner rank — a total
// order, so the pop sequence is a pure function of the solved surface.
type cellHeap []cell

func (h cellHeap) Len() int { return len(h) }
func (h cellHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	if h[i].loRank != h[j].loRank {
		return h[i].loRank < h[j].loRank
	}
	return h[i].hiRank < h[j].hiRank
}
func (h cellHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cellHeap) Push(x any)   { *h = append(*h, x.(cell)) }
func (h *cellHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}
