package neutralnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"neutralnet/internal/numeric"
	"neutralnet/internal/oligopoly"
	"neutralnet/internal/solver"
	"neutralnet/internal/sweep"
	"neutralnet/internal/sweep/path"
)

// The N-ISP session core: everything OligopolySession and DuopolySession
// share — the bounded FIFO cache, the warm store, the per-point solve with
// its fault seam and typed error wrap, and the dense, stream and adaptive
// sweeps with their stage-and-commit fold into the session. Both public
// sessions embed it over an oligopoly.Market (a duopoly is the N = 2
// market) and differ only in their outcome type and public signatures.

// sessionOutcome is what the core needs of a public outcome type O: an
// owning copy for the cache, the fault seam's NaN poisoning, its subsidy
// profile (the warm chain), its cache key, and the two objectives the
// stream and adaptive folds rank.
type sessionOutcome[O any] interface {
	clone() O
	poisoned() O
	subsidies() []float64
	key() string
	objectives() (revenue, welfare float64)
}

// sessionCore is the shared N-ISP session state. The embedding session is
// safe for concurrent use: direct solves are serialized on the one
// workspace, and sweeps run their own worker pools on private workspaces.
type sessionCore[O sessionOutcome[O]] struct {
	m oligopoly.Market
	// surface names the session in SolveErrors and validation errors
	// (sweep.SurfaceDuopoly or sweep.SurfaceOligopoly).
	surface string
	// build assembles an owning outcome from a (possibly workspace-
	// borrowed) price vector, profile and state.
	build func(m *oligopoly.Market, p, prof []float64, st oligopoly.State) O
	// cfg is the opening Engine's configuration: the worker-pool size,
	// the adaptive-refinement knobs (WithRefineObjective /
	// WithRefineBudget / WithRefineDepth), the stream summaries' quantiles
	// and the cache bound. Its faultHook is the session's own test-only
	// fault seam (see internal/faultinject), called once per sweep point
	// with its row-major rank: it starts disarmed whatever the Engine's,
	// and is settable only from export_test.go.
	cfg engineConfig

	// telem accumulates the solver layer's scheme decisions for this
	// session, shared with every sweep worker; read through SolverStats.
	telem solver.Telemetry

	mu      sync.Mutex
	ws      *oligopoly.Workspace
	warmBuf []float64
	warm    []float64
	cache   map[string]O
	order   []string // insertion order, for bounded FIFO eviction
}

// init binds the core to an N-ISP market over the Engine's CP catalog and
// utilization family, inheriting its Nash scheme, utilization kernel,
// fallback and the rest of its configuration.
func (c *sessionCore[O]) init(e *Engine, surface string, mu []float64, sigma, q float64,
	build func(*oligopoly.Market, []float64, []float64, oligopoly.State) O) error {
	c.m = oligopoly.Market{
		CPs: e.sys.CPs, Util: e.sys.Util,
		Mu: append([]float64(nil), mu...), Sigma: sigma, Q: q,
		Solver:     string(e.cfg.solver.Method),
		UtilSolver: e.cfg.solver.UtilSolver,
		Fallback:   string(e.cfg.solver.Fallback),
		Telemetry:  &c.telem,
	}
	c.surface, c.build, c.cfg = surface, build, e.cfg
	c.cfg.faultHook = nil
	c.ws = oligopoly.NewWorkspace()
	if err := c.m.Validate(); err != nil {
		return err
	}
	if c.cfg.cacheSize > 0 {
		c.cache = make(map[string]O, c.cfg.cacheSize)
	}
	return nil
}

// priceKey encodes a price vector as a FIFO-cache map key from the exact
// float bits, with −0 normalized to +0 so the bit key agrees with ==
// equality on every price a solve can cache. Up to eight prices encode
// in a stack buffer, so the key string is the only allocation.
func priceKey(p []float64) string {
	var arr [8 * 8]byte
	buf := arr[:0]
	for _, v := range p {
		if v == 0 {
			v = 0 // fold −0 into +0
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return string(buf)
}

// CacheLen returns the number of cached equilibria.
func (c *sessionCore[O]) CacheLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// cachedAs returns the resident cache entries oldest-first — the FIFO
// eviction order — each converted by as. The outcomes handed to as share
// the cache's slices; as copies what it hands out.
func cachedAs[O sessionOutcome[O], T any](c *sessionCore[O], as func(O) T) []T {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]T, len(c.order))
	for i, key := range c.order {
		out[i] = as(c.cache[key])
	}
	return out
}

// SolverStats returns a snapshot of the session's auto-scheme branch
// counters, accumulated across Solve, the sweeps (all workers),
// PriceEquilibrium and MonopolyBenchmark. All counters stay zero unless the
// Engine selected WithSolver(Auto). Safe to call concurrently with a
// running sweep.
func (c *sessionCore[O]) SolverStats() SolverStats { return solverStats(&c.telem) }

// solveError locates a per-point failure at prices p on the session's
// price surface.
func (c *sessionCore[O]) solveError(p []float64, err error) error {
	return &SolveError{
		Surface: c.surface, Prices: append([]float64(nil), p...),
		Scheme: sweep.ResolveScheme(c.m.Solver), Err: err,
	}
}

// solveCtx is the sessions' Solve: the CP equilibrium at prices p,
// consulting the cache and warm-starting from the session's previous
// solve. A single solve is one cancellation segment, so ctx is checked
// once on entry — an already cancelled context returns ctx.Err() with the
// cache and warm store untouched.
func (c *sessionCore[O]) solveCtx(ctx context.Context, p []float64) (O, error) {
	var zero O
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if len(p) != c.m.Players() {
		return zero, fmt.Errorf("%s: %d prices for %d ISPs", c.surface, len(p), c.m.Players())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := priceKey(p)
	if out, ok := c.cache[key]; ok {
		// Refresh the warm chain from the hit: the session's next solve
		// should seed from this profile — its nearest solved neighbor in
		// solve order — not from whatever preceded the hit. Without the
		// refresh a partially cached price walk warm-starts later solves
		// from a stale, distant profile.
		c.warm = numeric.CopyProfile(&c.warmBuf, out.subsidies())
		return out.clone(), nil
	}
	prof, st, err := c.m.CPEquilibriumWS(c.ws, p, c.warm)
	if err != nil {
		return zero, c.solveError(p, err)
	}
	c.warm = numeric.CopyProfile(&c.warmBuf, prof)
	out := c.build(&c.m, p, prof, st)
	c.storeLocked(key, out)
	return out, nil
}

// storeLocked inserts an outcome into the bounded FIFO cache, evicting the
// oldest insertion when full. Re-storing a resident price vector
// overwrites the cached outcome and refreshes its FIFO position to newest:
// a sweep tail point solved before the sweep must end up holding the
// sweep's bits (the cache answers later Solve calls and reseeds the warm
// chain on hits) and must not be evicted by the fold in favor of an older
// unrelated entry — both exactly as if the point had been newly inserted.
func (c *sessionCore[O]) storeLocked(key string, out O) {
	if c.cache == nil {
		return
	}
	if _, ok := c.cache[key]; ok {
		k := slices.Index(c.order, key)
		c.order = slices.Delete(c.order, k, k+1)
	} else if len(c.order) >= c.cfg.cacheSize {
		delete(c.cache, c.order[0])
		c.order = c.order[1:]
	}
	c.cache[key] = out.clone()
	c.order = append(c.order, key)
}

// commit folds a successful sweep into the session in one step: the staged
// outcomes enter the cache in snake order and the warm store continues
// from lastS, the final path point's profile, exactly as a sequential walk
// would have left them. Sweeps stage while unlocked and commit only after
// the whole pool returned clean, so a failed, cancelled or panicking sweep
// leaves the session exactly as it was.
func (c *sessionCore[O]) commit(staged []O, lastS []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range staged {
		c.storeLocked(staged[i].key(), staged[i])
	}
	if lastS != nil {
		c.warm = numeric.CopyProfile(&c.warmBuf, lastS)
	}
}

// cacheFrom returns the first snake-path position of an n-point sweep
// whose outcome can survive the FIFO bound: only the last cap insertions
// do, so the fold skips the insert/evict churn for everything earlier.
func (c *sessionCore[O]) cacheFrom(n int) int {
	if n > c.cfg.cacheSize {
		return n - c.cfg.cacheSize
	}
	return 0
}

// priceEquilibrium is the sessions' PriceEquilibrium: the ISPs' price
// competition on [0, pMax] by sequential best responses in player order
// (maxRounds ≤ 0 selects the default), with the CPs re-equilibrating
// inside every revenue evaluation. It runs entirely on its own workspace
// and leaves the session cache and warm store untouched: the competition's
// best-response trajectory jumps around the price surface, and letting it
// overwrite the session's warm chain — or seed from it — would make
// session results depend on when the competition ran.
func (c *sessionCore[O]) priceEquilibrium(pMax float64, maxRounds int) (O, error) {
	p, prof, st, err := c.m.PriceEquilibrium(pMax, maxRounds)
	if err != nil {
		var zero O
		return zero, err
	}
	return c.build(&c.m, p, prof, st), nil
}

// MonopolyBenchmark solves the capacity-equivalent single-ISP comparator
// (µ = Σ_k µ_k) at its revenue-optimal price on [0, pMax], for the
// competition-vs-monopoly comparisons of §6.
func (c *sessionCore[O]) MonopolyBenchmark(pMax float64) (price float64, welfare float64, subsidies []float64, err error) {
	p, st, sub, err := c.m.MonopolyBenchmark(pMax)
	if err != nil {
		return 0, 0, nil, err
	}
	w := 0.0
	for i, cp := range c.m.CPs {
		w += cp.Value * st.Theta[i]
	}
	return p, w, sub, nil
}

// sessionWorker is one sweep worker's private state: its oligopoly
// workspace, warm chain, and coordinate/price scratch.
type sessionWorker struct {
	ws      *oligopoly.Workspace
	warmBuf []float64
	warm    []float64
	idx     []int
	p       []float64
}

func (c *sessionCore[O]) newWorker() *sessionWorker {
	n := c.m.Players()
	return &sessionWorker{
		ws:  oligopoly.NewWorkspace(),
		idx: make([]int, n),
		p:   make([]float64, n),
	}
}

// solvePoint solves the grid point at the worker's coordinates w.idx,
// whose row-major rank is rank, and returns its owning outcome. A chained
// point seeds its subsidy profile and per-network utilization from the
// worker's previous point; an unchained one cold-starts a new chain. The
// test-only fault seam is consulted exactly once per point, keyed on its
// rank: an armed Fail dies before the solve, and an armed poison runs the
// solve normally (keeping the warm chain intact) but NaN-poisons the
// outcome's objectives. Any failure surfaces as a *SolveError locating the
// point.
func (c *sessionCore[O]) solvePoint(w *sessionWorker, grids [][]float64, rank int, chained bool) (O, error) {
	var zero O
	for d, i := range w.idx {
		w.p[d] = grids[d][i]
	}
	poison := false
	if c.cfg.faultHook != nil {
		var err error
		if poison, err = c.cfg.faultHook(rank); err != nil {
			return zero, c.solveError(w.p, err)
		}
	}
	if !chained {
		w.warm = nil
	}
	prof, st, err := c.m.CPEquilibriumChainWS(w.ws, w.p, w.warm, chained)
	if err != nil {
		return zero, c.solveError(w.p, err)
	}
	w.warm = numeric.CopyProfile(&w.warmBuf, prof)
	out := c.build(&c.m, w.p, prof, st)
	if poison {
		out = out.poisoned()
	}
	return out, nil
}

// runSegment solves the snake-path positions [lo, hi) of one segment as
// one warm chain, handing each outcome to store with its row-major rank.
// It never reads the session cache or warm store.
func (c *sessionCore[O]) runSegment(w *sessionWorker, pl path.Plan, grids [][]float64, lo, hi int, store func(rank int, out O)) error {
	for k := lo; k < hi; k++ {
		pl.Coords(k, w.idx)
		rank := pl.Index(w.idx)
		out, err := c.solvePoint(w, grids, rank, k > lo)
		if err != nil {
			return err
		}
		store(rank, out)
	}
	return nil
}

// sweepGrids validates a price-grid list against the session's ISP count
// and returns the session's own copies of the grids, the hypercube's
// dimensions, and its snake-path plan.
func (c *sessionCore[O]) sweepGrids(grids [][]float64) ([][]float64, []int, path.Plan, error) {
	if len(grids) != c.m.Players() {
		return nil, nil, path.Plan{}, fmt.Errorf("%s: %d price grids for %d ISPs", c.surface, len(grids), c.m.Players())
	}
	owned := make([][]float64, len(grids))
	dims := make([]int, len(grids))
	for k, g := range grids {
		if len(g) == 0 {
			return nil, nil, path.Plan{}, fmt.Errorf("%s: empty price grid %d", c.surface, k)
		}
		owned[k] = append([]float64(nil), g...)
		dims[k] = len(g)
	}
	return owned, dims, path.New(dims, 0), nil
}

// sweepWorkers clamps the session's worker setting to the plan's chain
// count.
func (c *sessionCore[O]) sweepWorkers(pl path.Plan) int {
	workers := c.cfg.workers
	if workers < 1 {
		workers = 1
	}
	if ch := pl.Chains(); workers > ch {
		workers = ch
	}
	return workers
}

// names returns the session's CP names, in subsidy-profile order.
func (c *sessionCore[O]) names() []string {
	names := make([]string, len(c.m.CPs))
	for i, cp := range c.m.CPs {
		names[i] = cp.Name
	}
	return names
}

// denseSweep is a solved price hypercube: the flat row-major outcomes over
// the session's own grid copies.
type denseSweep[O any] struct {
	grids    [][]float64
	outcomes []O
	workers  int
	chains   int
}

// sweepDense solves the CP equilibrium over the Cartesian price hypercube
// ×_k grids[k] on the deterministic snake-path worker pool. Each worker
// owns a private workspace; within a segment the subsidy profile and the
// per-network utilization seeds chain point to point, and every segment
// cold-starts its first point, so the surface is bit-identical at any
// worker count and independent of the session's history. After the whole
// sweep succeeds, its snake tail is committed to the cache and the warm
// store continues from the final path point.
func (c *sessionCore[O]) sweepDense(ctx context.Context, grids [][]float64) (*denseSweep[O], error) {
	owned, _, pl, err := c.sweepGrids(grids)
	if err != nil {
		return nil, err
	}
	workers := c.sweepWorkers(pl)
	res := &denseSweep[O]{grids: owned, outcomes: make([]O, pl.Len()), workers: workers, chains: pl.Chains()}
	err = path.RunCtx(ctx, pl, workers, c.newWorker, func(w *sessionWorker, lo, hi int) error {
		return c.runSegment(w, pl, owned, lo, hi, func(rank int, out O) { res.outcomes[rank] = out })
	})
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(owned))
	from := c.cacheFrom(pl.Len())
	staged := make([]O, 0, pl.Len()-from)
	for k := from; k < pl.Len(); k++ {
		pl.Coords(k, idx)
		staged = append(staged, res.outcomes[pl.Index(idx)])
	}
	pl.Coords(pl.Len()-1, idx)
	c.commit(staged, res.outcomes[pl.Index(idx)].subsidies())
	return res, nil
}

// streamSweep is the constant-memory reduction of a streamed price sweep.
type streamSweep[O any] struct {
	grids                    [][]float64
	chains, points           int
	revenue, welfare         SweepAccumulator
	bestRevenue, bestWelfare O
}

// sweepStream solves the hypercube exactly like sweepDense but never
// materializes the outcome surface: completed segments are handed to emit
// in strict snake order and folded into the returned
// summary, holding O(segment · workers) outcomes live regardless of grid
// size. Cache-worthy outcomes are staged during the sweep — each outcome
// owns its slices, so staging survives the slot ring's reuse — and
// committed only after the last segment.
func (c *sessionCore[O]) sweepStream(ctx context.Context, grids [][]float64, emit func(seg, lo, hi int, outs []O, ranks []int) error) (*streamSweep[O], error) {
	owned, _, pl, err := c.sweepGrids(grids)
	if err != nil {
		return nil, err
	}
	for _, q := range c.cfg.quantiles {
		if !(q > 0 && q < 1) {
			return nil, fmt.Errorf("%s: quantile %g outside (0, 1)", c.surface, q)
		}
	}
	workers := c.sweepWorkers(pl)
	sum := &streamSweep[O]{
		grids:   owned,
		chains:  pl.Chains(),
		revenue: sweep.NewAccumulator(c.cfg.quantiles),
		welfare: sweep.NewAccumulator(c.cfg.quantiles),
	}

	// Per-segment staging ring: segment k stages into slot k % lead; the
	// scheduler's lead window guarantees live segments never share a slot.
	type slot struct {
		outs  []O
		ranks []int
	}
	slots := make([]slot, path.Lead(workers, pl.Chains()))
	from := c.cacheFrom(pl.Len())
	staged := make([]O, 0, pl.Len()-from)
	var lastS []float64

	err = path.RunOrderedCtx(ctx, pl, workers, c.newWorker,
		func(w *sessionWorker, k, lo, hi int) error {
			sl := &slots[k%len(slots)]
			sl.outs = sl.outs[:0]
			sl.ranks = sl.ranks[:0]
			return c.runSegment(w, pl, owned, lo, hi, func(rank int, out O) {
				sl.outs = append(sl.outs, out)
				sl.ranks = append(sl.ranks, rank)
			})
		},
		func(k, lo, hi int) error {
			sl := &slots[k%len(slots)]
			// The staged snake-order replay leaves the same final FIFO
			// state as the dense tail fold: only the last cap insertions
			// survive.
			for n, out := range sl.outs {
				sum.points++
				rev, wel := out.objectives()
				if sum.revenue.Add(sl.ranks[n], rev) {
					sum.bestRevenue = out
				}
				if sum.welfare.Add(sl.ranks[n], wel) {
					sum.bestWelfare = out
				}
				if lo+n >= from {
					staged = append(staged, out)
				}
			}
			if n := len(sl.outs); n > 0 {
				lastS = sl.outs[n-1].subsidies()
			}
			return emit(k, lo, hi, sl.outs, sl.ranks)
		})
	if err != nil {
		return nil, err
	}
	c.commit(staged, lastS)
	return sum, nil
}

// adaptiveSweep is the sparse result of a coarse-to-fine price sweep.
type adaptiveSweep[O any] struct {
	grids         [][]float64
	objective     string
	outcomes      []O
	ranks         []int
	best          O
	bestRank      int
	solved, dense int
	rounds, cells int
}

// sweepAdaptive locates the hypercube's argmax — combined ISP revenue by
// default, welfare under WithRefineObjective — coarse-to-fine: a coarse
// price lattice is solved first and only the highest-ranked cells are
// recursively subdivided through warm chains, under the Engine's
// WithRefineBudget (default 40% of the dense grid) and WithRefineDepth.
// The trajectory is deterministic at any worker count. The session cache
// and warm store are never touched: the refinement's chains jump around
// the hypercube, and folding them in would make the session's warm chain
// depend on the refinement trajectory. ctx is polled between rounds and
// at every chain-segment boundary inside each round's pool.
func (c *sessionCore[O]) sweepAdaptive(ctx context.Context, grids [][]float64) (*adaptiveSweep[O], error) {
	owned, dims, pl, err := c.sweepGrids(grids)
	if err != nil {
		return nil, err
	}
	objective := c.cfg.objective
	if objective == "" {
		objective = ObjectiveRevenue
	}
	if objective != ObjectiveRevenue && objective != ObjectiveWelfare {
		return nil, fmt.Errorf("%s: unknown adaptive objective %q (have %s)",
			c.surface, objective, strings.Join(sweep.ObjectiveNames(), ", "))
	}
	welfare := objective == ObjectiveWelfare
	res := &adaptiveSweep[O]{grids: owned, objective: objective, bestRank: -1, dense: pl.Len()}
	budget := c.cfg.refineBudget
	if budget <= 0 {
		budget = (res.dense*sweep.DefaultBudgetNum + sweep.DefaultBudgetDen - 1) / sweep.DefaultBudgetDen
	}

	// Sparse objective surface: row-major rank → result index. Lookup
	// only — never ranged over. The refinement scores solved ranks only.
	at := make(map[int]int)
	score := func(rank int) float64 {
		rev, wel := res.outcomes[at[rank]].objectives()
		if welfare {
			return wel
		}
		return rev
	}

	solve := func(chains [][][]int) error {
		bufs := make([][]O, len(chains))
		for i := range chains {
			bufs[i] = make([]O, len(chains[i]))
		}
		cpl := path.New([]int{len(chains)}, 1)
		err := path.RunCtx(ctx, cpl, c.cfg.workers, c.newWorker, func(w *sessionWorker, lo, hi int) error {
			for ci := lo; ci < hi; ci++ {
				for n, co := range chains[ci] {
					copy(w.idx, co)
					out, err := c.solvePoint(w, owned, pl.Index(co), n > 0)
					if err != nil {
						return err
					}
					bufs[ci][n] = out
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for ci := range chains {
			for n, co := range chains[ci] {
				rank := pl.Index(co)
				at[rank] = len(res.outcomes)
				res.outcomes = append(res.outcomes, bufs[ci][n])
				res.ranks = append(res.ranks, rank)
			}
		}
		return nil
	}

	stats, err := path.AdaptiveCtx(ctx, dims, path.AdaptiveConfig{
		Budget:   budget,
		MaxDepth: c.cfg.refineDepth,
	}, solve, score)
	if err != nil {
		return nil, err
	}
	res.solved = stats.Solved
	res.rounds = stats.Rounds
	res.cells = stats.Cells
	res.bestRank = stats.BestRank
	if stats.BestRank >= 0 {
		res.best = res.outcomes[at[stats.BestRank]]
	}
	return res, nil
}

// writeSessionCSVHeader writes the N-ISP CSV header: per-ISP column groups
// plus one subsidy column per CP (commas in names become semicolons).
func writeSessionCSVHeader(w io.Writer, n int, names []string) error {
	var cols []string
	for _, group := range []string{"p", "share", "phi", "revenue"} {
		for k := 1; k <= n; k++ {
			cols = append(cols, fmt.Sprintf("%s%d", group, k))
		}
	}
	cols = append(cols, "welfare")
	for _, name := range names {
		cols = append(cols, "s_"+strings.ReplaceAll(name, ",", ";"))
	}
	_, err := io.WriteString(w, strings.Join(cols, ",")+"\n")
	return err
}

// writeSessionCSVRow writes one outcome as an N-ISP CSV row: its column
// groups (per-ISP prices, shares, utilizations and revenues, the welfare,
// the subsidy profile) in order, comma-separated.
func writeSessionCSVRow(w io.Writer, groups ...[]float64) error {
	sep := ""
	for _, group := range groups {
		for _, v := range group {
			if _, err := fmt.Fprintf(w, "%s%g", sep, v); err != nil {
				return err
			}
			sep = ","
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// argmaxRevenue folds outs into the running argmax (best, bestV) of
// combined ISP revenue. Non-finite revenues are skipped — a NaN at one
// grid point must not poison the maximum by failing every comparison —
// and ties keep the earlier outcome.
func argmaxRevenue[O sessionOutcome[O]](outs []O, best O, bestV float64) (O, float64) {
	for _, out := range outs {
		if v, _ := out.objectives(); !math.IsNaN(v) && !math.IsInf(v, 0) && v > bestV {
			best, bestV = out, v
		}
	}
	return best, bestV
}
