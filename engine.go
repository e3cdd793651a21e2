package neutralnet

import (
	"container/list"
	"context"
	"math"
	"sync"

	"neutralnet/internal/game"
	"neutralnet/internal/isp"
	"neutralnet/internal/longrun"
	"neutralnet/internal/planner"
	"neutralnet/internal/solver"
	"neutralnet/internal/sweep"
)

// Engine is a reusable equilibrium-computation session over one System. It
// owns the solver configuration, a bounded equilibrium cache keyed on
// (p, q, µ), and a warm-start store that seeds each Nash solve from the
// nearest previously solved profile — making dense parameter sweeps (the
// paper's revenue/welfare surfaces, the Theorem 6 sensitivity maps)
// dramatically cheaper than independent cold solves.
//
// An Engine is safe for concurrent use. Sweep runs a worker pool over the
// grid and is deterministic: results are bit-identical for every worker
// count.
type Engine struct {
	sys *System
	cfg engineConfig

	// wsPool amortizes game workspaces across Solve/SolveAt calls: a warm
	// workspace makes the Nash solve itself allocation-free, so a Solve
	// call's footprint is just the returned equilibrium's own slices.
	wsPool sync.Pool

	// telem is the session's scheme-decision telemetry, shared (by pointer,
	// through cfg.solver.Telemetry) with every workspace the Engine's
	// surfaces solve on — including parallel sweep workers. Atomic counters;
	// read through SolverStats.
	telem solver.Telemetry

	mu    sync.Mutex
	cache *eqCache
	stats EngineStats
}

// EngineStats counts the Engine's solver and cache activity across Solve,
// SolveAt and Sweep. The higher-level searches (OptimalPrice, PlanCapacity,
// CompareEfficiency) run inside the internal packages and are not counted.
type EngineStats struct {
	Solves     uint64 // Nash solves actually performed
	CacheHits  uint64 // Solve calls answered from the cache
	WarmStarts uint64 // solves seeded from a previously solved profile
	Evictions  uint64 // cache entries evicted by the size bound
}

// NewEngine builds an Engine over the validated system with the given
// options. The system is treated as read-only for the Engine's lifetime.
func NewEngine(sys *System, opts ...Option) (*Engine, error) {
	if sys == nil {
		return nil, errNilSystem
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	e := &Engine{sys: sys, cfg: cfg}
	// Every surface that passes e.cfg.solver onward — Solve, Sweep,
	// OptimalPrice, PlanCapacity, CompareEfficiency — reports scheme
	// decisions into the Engine's own telemetry.
	e.cfg.solver.Telemetry = &e.telem
	e.wsPool.New = func() any { return game.NewWorkspace() }
	if cfg.cacheSize > 0 {
		e.cache = newEqCache(cfg.cacheSize)
	}
	return e, nil
}

// System returns the system the Engine solves over.
func (e *Engine) System() *System { return e.sys }

// Stats returns a snapshot of the Engine's activity counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// SolverStats reports which branch the "auto" meta-solver committed to,
// accumulated across every solve this Engine ran (Solve, Sweep — all
// workers included — OptimalPrice, PlanCapacity, SimulateInvestment, and
// the Nash side of CompareEfficiency; the planner's coordinate ascent
// dispatches outside the telemetry and is not counted). The
// counters make the adaptive scheduling observable from benchmarks and
// examples: a sweep that keeps taking the Anderson branch is telling you
// its games contract slowly. All counters stay zero unless
// WithSolver(Auto) selects the meta-solver. A DuopolySession keeps its own
// counters (DuopolySession.SolverStats).
type SolverStats struct {
	// AutoGaussSeidel counts solves that stayed on plain Gauss–Seidel
	// sweeps (fast contraction, or converged before the probe closed).
	AutoGaussSeidel uint64
	// AutoSOR counts solves delegated to ρ̂-tuned over-relaxation.
	AutoSOR uint64
	// AutoAnderson counts solves delegated to safeguarded Anderson
	// acceleration.
	AutoAnderson uint64
	// FallbackSolves counts WithFallbackSolver ladder retries: a primary
	// scheme exhausted its iteration budget without converging and the
	// point was retried through the fallback scheme. Counted when the
	// retry is issued, whether or not it then converges.
	FallbackSolves uint64
}

// Total returns the number of auto-dispatched solves recorded. Fallback
// retries are a separate ladder, not an auto branch, and are excluded.
func (s SolverStats) Total() uint64 { return s.AutoGaussSeidel + s.AutoSOR + s.AutoAnderson }

// SolverStats returns a snapshot of the Engine's auto-scheme branch and
// fallback-ladder counters. Safe to call concurrently with running sweeps.
func (e *Engine) SolverStats() SolverStats { return solverStats(&e.telem) }

// solverStats snapshots a solver telemetry sink as SolverStats.
func solverStats(t *solver.Telemetry) SolverStats {
	c := t.Snapshot()
	return SolverStats{
		AutoGaussSeidel: c.GaussSeidel,
		AutoSOR:         c.SOR,
		AutoAnderson:    c.Anderson,
		FallbackSolves:  c.Fallbacks,
	}
}

// CacheLen returns the number of cached equilibria.
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}

// Solve returns the Nash equilibrium of the subsidization game at price p
// and cap q, consulting the cache and warm-starting from the nearest
// previously solved profile.
func (e *Engine) Solve(p, q float64) (Equilibrium, error) {
	return e.SolveAt(p, q, e.sys.Mu)
}

// SolveCtx is Solve with cooperative cancellation: a single solve is one
// cancellation segment, so ctx is checked once on entry — an already
// cancelled context returns ctx.Err() before touching the cache or solving,
// and an uncancelled call is bit-identical to Solve.
func (e *Engine) SolveCtx(ctx context.Context, p, q float64) (Equilibrium, error) {
	return e.SolveAtCtx(ctx, p, q, e.sys.Mu)
}

// gameAt builds the game at (p, q) on the Engine's system with capacity µ
// (a copy when µ differs; the Engine's system is never mutated).
func (e *Engine) gameAt(p, q, mu float64) (*Game, error) {
	sys := e.sys
	if mu != sys.Mu {
		cp := *sys
		cp.Mu = mu
		sys = &cp
	}
	return game.New(sys, p, q)
}

// SolveAt is Solve with a capacity override: the game is solved on a copy
// of the system with capacity µ (the Engine's system is not mutated).
func (e *Engine) SolveAt(p, q, mu float64) (Equilibrium, error) {
	return e.SolveAtCtx(context.Background(), p, q, mu)
}

// SolveAtCtx is SolveAt with cooperative cancellation, under the same
// one-segment semantics as SolveCtx: an already cancelled context returns
// ctx.Err() with the Engine's cache, warm state and stats untouched; once
// the solve starts it runs to completion.
func (e *Engine) SolveAtCtx(ctx context.Context, p, q, mu float64) (Equilibrium, error) {
	if err := ctx.Err(); err != nil {
		return Equilibrium{}, err
	}
	key := eqKey{p: p, q: q, mu: mu}
	e.mu.Lock()
	if e.cache != nil {
		if eq, ok := e.cache.get(key); ok {
			e.stats.CacheHits++
			e.mu.Unlock()
			return eq.Clone(), nil
		}
	}
	opts := e.cfg.solver
	if e.cfg.warmStart && e.cache != nil {
		if warm, ok := e.cache.nearest(key); ok {
			opts.Initial = warm
			e.stats.WarmStarts++
		}
	}
	e.mu.Unlock()

	g, err := e.gameAt(p, q, mu)
	if err != nil {
		return Equilibrium{}, err
	}
	// Solve on a pooled workspace; the returned equilibrium borrows the
	// workspace buffers, so it must be escaped with Clone before the
	// workspace is released (and before it is handed to the caller or the
	// cache — both retain it).
	ws := e.wsPool.Get().(*game.Workspace)
	eq, err := g.SolveNashWS(ws, opts)
	out := eq.Clone()
	e.wsPool.Put(ws)
	if err != nil {
		return out, err
	}

	e.mu.Lock()
	e.stats.Solves++
	if e.cache != nil {
		e.stats.Evictions += uint64(e.cache.put(key, out.Clone()))
	}
	e.mu.Unlock()
	return out, nil
}

// Sweep solves the equilibrium over every grid point with the Engine's
// worker pool. Points are returned in deterministic order (µ-major, then
// q, then p) and the result is bit-identical for every worker count: the
// grid is linearized into a snake-order path (consecutive points are
// always grid neighbors, including across row boundaries) and cut into
// fixed segments that depend only on the grid; warm starts — the Nash
// profile and the utilization seed φ — chain within each segment only,
// never across segments or through the cache. Sweeps default to the warm
// utilization kernel (see WithUtilizationSolver). Solved points are
// inserted into the cache for later Solve calls. Sweep is SweepCtx under
// context.Background(): never cancelled.
func (e *Engine) Sweep(grid Grid) (*SweepResult, error) {
	return e.SweepCtx(context.Background(), grid)
}

// SweepCtx is Sweep with cooperative cancellation at segment boundaries:
// the worker pool polls ctx.Err() once per claimed warm-start segment, so
// an uncancelled run is bit-identical to Sweep (at any worker count) and a
// cancelled run returns ctx.Err() with the Engine's cache and stats exactly
// as they were before the call — the cache fold happens only after the
// whole sweep succeeds. A panicking worker likewise surfaces as a
// *PanicError instead of killing the process, with nothing folded.
func (e *Engine) SweepCtx(ctx context.Context, grid Grid) (*SweepResult, error) {
	res, err := sweep.RunCtx(ctx, e.sys, grid, sweep.Config{
		Workers:    e.cfg.workers,
		Solver:     e.cfg.solver,
		WarmStart:  e.cfg.warmStart,
		SegmentLen: sweep.DefaultSegmentLen,
		Emit:       e.cfg.emit,
		FaultHook:  e.cfg.faultHook,
	})
	if err != nil {
		return nil, err
	}
	// Only the last cacheSize points can survive LRU eviction, so clone
	// just those, and outside the lock — a sweep much larger than the
	// cache must not churn clones or block concurrent Solve callers.
	var insert []sweep.Point
	var clones []Equilibrium
	if e.cache != nil {
		insert = res.Points
		if len(insert) > e.cfg.cacheSize {
			insert = insert[len(insert)-e.cfg.cacheSize:]
		}
		clones = make([]Equilibrium, len(insert))
		for i, pt := range insert {
			clones[i] = pt.Eq.Clone()
		}
	}

	e.mu.Lock()
	e.stats.Solves += uint64(len(res.Points))
	if e.cfg.warmStart {
		e.stats.WarmStarts += uint64(len(res.Points) - res.Chains)
	}
	for i, pt := range insert {
		e.stats.Evictions += uint64(e.cache.put(eqKey{p: pt.P, q: pt.Q, mu: pt.Mu}, clones[i]))
	}
	e.mu.Unlock()
	return res, nil
}

// SweepStream solves the grid exactly like Sweep but never materializes the
// result slab: completed segments are handed to emit (which may be nil) in
// strict snake order, and everything the slab accessors would answer —
// revenue/welfare argmax points, min/max/mean, the WithQuantiles percentile
// estimates — comes back in the constant-memory SweepSummary. Peak live
// memory is O(segment · workers) regardless of grid size, which is what
// makes 10⁶-point grids queryable; the summary is bit-identical to the slab
// reductions at any worker count (the accumulators fold in snake order with
// slab tie rules). SweepStream leaves the Engine's equilibrium cache and
// stats untouched — retaining points would defeat the memory contract.
// SweepStream is SweepStreamCtx under context.Background().
func (e *Engine) SweepStream(grid Grid, emit func(SweepSegment) error) (*SweepSummary, error) {
	return e.SweepStreamCtx(context.Background(), grid, emit)
}

// SweepStreamCtx is SweepStream with cooperative cancellation at segment
// boundaries: a cancelled context stops claiming segments, suppresses the
// remaining emits, and returns ctx.Err() with no summary; an uncancelled
// run is bit-identical to SweepStream at any worker count.
func (e *Engine) SweepStreamCtx(ctx context.Context, grid Grid, emit func(SweepSegment) error) (*SweepSummary, error) {
	return sweep.StreamCtx(ctx, e.sys, grid, sweep.Config{
		Workers:    e.cfg.workers,
		Solver:     e.cfg.solver,
		WarmStart:  e.cfg.warmStart,
		SegmentLen: sweep.DefaultSegmentLen,
		Quantiles:  e.cfg.quantiles,
		FaultHook:  e.cfg.faultHook,
	}, emit)
}

// SweepAdaptive locates the grid's argmax — ISP revenue by default, system
// welfare under WithRefineObjective — coarse-to-fine: a coarse lattice is
// solved first and only the highest-ranked cells are recursively
// subdivided through the same warm φ-carry chains as a dense sweep, so the
// solve count scales with the surface's peak structure rather than the
// grid (WithRefineBudget caps it at 40% of the dense grid by default;
// WithRefineDepth bounds the rounds). The refinement frontier is
// deterministic, so the solved points and the argmax are bit-identical at
// any worker count. Like SweepStream, the Engine's cache and stats are
// left untouched. SweepAdaptive is SweepAdaptiveCtx under
// context.Background().
func (e *Engine) SweepAdaptive(grid Grid) (*AdaptiveSweepResult, error) {
	return e.SweepAdaptiveCtx(context.Background(), grid)
}

// SweepAdaptiveCtx is SweepAdaptive with cooperative cancellation: the
// refinement loop checks ctx before each batch and the batch pool polls it
// at segment claims; a cancelled run returns ctx.Err() with no partial
// result, an uncancelled one is bit-identical to SweepAdaptive.
func (e *Engine) SweepAdaptiveCtx(ctx context.Context, grid Grid) (*AdaptiveSweepResult, error) {
	return sweep.RunAdaptiveCtx(ctx, e.sys, grid, sweep.AdaptiveConfig{
		Config: sweep.Config{
			Workers:    e.cfg.workers,
			Solver:     e.cfg.solver,
			WarmStart:  e.cfg.warmStart,
			SegmentLen: sweep.DefaultSegmentLen,
			FaultHook:  e.cfg.faultHook,
		},
		Objective: e.cfg.objective,
		Budget:    e.cfg.refineBudget,
		MaxDepth:  e.cfg.refineDepth,
	})
}

// OptimalPrice finds the ISP's revenue-maximizing price on [0, pMax] under
// policy cap q: a warm-started parallel sweep under the Engine's solver
// configuration locates the best grid cell, then golden-section search
// refines inside it. The search runs in the internal packages and does not
// populate the Engine's cache or stats.
func (e *Engine) OptimalPrice(q, pMax float64) (float64, Outcome, error) {
	return isp.OptimalPriceWith(e.sys, q, 0, pMax, 0, e.cfg.workers, e.cfg.solver, e.cfg.warmStart)
}

// PlanCapacity solves the future-work capacity-planning extension:
// maximize R(p; µ) − cost·µ over µ ∈ [muLo, muHi] and p ∈ [0, pMax], under
// the Engine's solver configuration. Like OptimalPrice, the search bypasses
// the Engine's cache and stats.
func (e *Engine) PlanCapacity(q, cost, muLo, muHi, pMax float64) (CapacityPlanResult, error) {
	return isp.CapacityPlanWith(e.sys, q, cost, muLo, muHi, pMax, 0, e.cfg.workers, e.cfg.solver, e.cfg.warmStart)
}

// CompareEfficiency quantifies how much of the social planner's welfare
// the decentralized subsidization competition attains at (p, q). Both sides
// run under the Engine's solver configuration: the Nash side through the
// usual options, the planner's coordinate ascent dispatched through the same
// fixed-point registry scheme.
func (e *Engine) CompareEfficiency(p, q float64) (Efficiency, error) {
	return planner.CompareAtWith(e.sys, p, q, e.cfg.solver)
}

// SimulateInvestment runs the long-run capacity-investment process from
// initial capacity mu0 at fixed price p, cap q and per-unit capacity cost,
// under the Engine's solver configuration — WithSolver and
// WithUtilizationSolver reach every epoch's equilibrium solve. The epoch
// trajectory threads one workspace and warm-starts each epoch from the
// previous equilibrium.
func (e *Engine) SimulateInvestment(mu0, p, q, cost float64) (longrun.Trajectory, error) {
	return longrun.Simulate(e.sys, mu0, longrun.Config{
		P: p, Q: q, Cost: cost,
		Solver:     e.cfg.solver.Method,
		UtilSolver: e.cfg.solver.UtilSolver,
		Tol:        e.cfg.solver.Tol,
		MaxIter:    e.cfg.solver.MaxIter,
		Telemetry:  e.cfg.solver.Telemetry,
	})
}

// Sensitivity solves the equilibrium at (p, q) (cache-aware) and returns
// the Theorem 6 derivatives ∂s/∂p and ∂s/∂q there, at the Engine's base
// capacity. For SolveAt equilibria use SensitivityAtCap with the same µ.
func (e *Engine) Sensitivity(p, q float64) (Sensitivity, error) {
	return e.SensitivityAtCap(p, q, e.sys.Mu)
}

// SensitivityAtCap is Sensitivity with a capacity override, matching
// SolveAt(p, q, mu).
func (e *Engine) SensitivityAtCap(p, q, mu float64) (Sensitivity, error) {
	eq, err := e.SolveAt(p, q, mu)
	if err != nil {
		return Sensitivity{}, err
	}
	g, err := e.gameAt(p, q, mu)
	if err != nil {
		return Sensitivity{}, err
	}
	return g.SensitivityAt(eq.S)
}

// VerifyKKT checks a candidate equilibrium of the game at (p, q) against
// the paper's KKT system (18), at the Engine's base capacity. Equilibria
// from SolveAt must be verified with VerifyKKTAtCap and the same µ — the
// KKT residuals are meaningless against a game with a different capacity.
func (e *Engine) VerifyKKT(p, q float64, eq Equilibrium) (KKTReport, error) {
	return e.VerifyKKTAtCap(p, q, e.sys.Mu, eq)
}

// VerifyKKTAtCap is VerifyKKT with a capacity override, matching
// SolveAt(p, q, mu).
func (e *Engine) VerifyKKTAtCap(p, q, mu float64, eq Equilibrium) (KKTReport, error) {
	g, err := e.gameAt(p, q, mu)
	if err != nil {
		return KKTReport{}, err
	}
	return g.VerifyKKT(eq.S)
}

// --- bounded equilibrium cache ---------------------------------------------

// eqKey identifies a solved game instance.
type eqKey struct{ p, q, mu float64 }

// dist is the warm-start distance between two keys: an unnormalized L1
// metric on (p, q, µ). The parameters share the paper's O(1) scale, so no
// per-axis normalization is needed.
func (k eqKey) dist(o eqKey) float64 {
	return math.Abs(k.p-o.p) + math.Abs(k.q-o.q) + math.Abs(k.mu-o.mu)
}

// eqCache is a bounded LRU map from game parameters to solved equilibria.
// It doubles as the warm-start store: nearest scans the resident keys for
// the closest solved profile.
type eqCache struct {
	cap   int
	order *list.List // front = most recently used; values are *eqEntry
	byKey map[eqKey]*list.Element
}

type eqEntry struct {
	key eqKey
	eq  Equilibrium
}

func newEqCache(capacity int) *eqCache {
	return &eqCache{cap: capacity, order: list.New(), byKey: make(map[eqKey]*list.Element)}
}

func (c *eqCache) len() int { return c.order.Len() }

func (c *eqCache) get(k eqKey) (Equilibrium, bool) {
	el, ok := c.byKey[k]
	if !ok {
		return Equilibrium{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*eqEntry).eq, true
}

// put inserts (or refreshes) an entry and returns how many were evicted.
func (c *eqCache) put(k eqKey, eq Equilibrium) int {
	if el, ok := c.byKey[k]; ok {
		el.Value.(*eqEntry).eq = eq
		c.order.MoveToFront(el)
		return 0
	}
	c.byKey[k] = c.order.PushFront(&eqEntry{key: k, eq: eq})
	evicted := 0
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byKey, back.Value.(*eqEntry).key)
		evicted++
	}
	return evicted
}

// nearest returns the subsidy profile of the resident equilibrium closest
// to k, as a fresh slice safe to hand to the solver.
func (c *eqCache) nearest(k eqKey) ([]float64, bool) {
	var best *eqEntry
	bestD := math.Inf(1)
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*eqEntry)
		if d := ent.key.dist(k); d < bestD {
			best, bestD = ent, d
		}
	}
	if best == nil {
		return nil, false
	}
	return append([]float64(nil), best.eq.S...), true
}
