// Package duopoly extends the paper's single-ISP model with access-market
// competition, the direction §6 sketches: "we believe that competition
// between ISPs will also incentivize them to adopt subsidization schemes."
//
// Two access ISPs with capacities µ₁, µ₂ set usage prices p₁, p₂. Users
// split between them by a logit price-attraction rule with sensitivity σ
// (σ → ∞ approaches winner-takes-all; σ = 0 splits evenly). CPs choose one
// subsidy s_i ∈ [0, q] that applies on both networks — a CP sponsors its
// users' usage wherever they attach — and maximize the summed utility
// U_i = (v_i − s_i)(θ_i¹ + θ_i²). Each network forms its own utilization
// fixed point. On top of the CPs' equilibrium, the ISPs compete in prices
// (best-response dynamics on revenue).
//
// The CP equilibrium is expressed as a solver.Problem and dispatched
// through the shared fixed-point registry, so the duopoly inherits every
// registered scheme (gauss-seidel, jacobi-damped, anderson, sor,
// jacobi-adaptive, auto) via Market.Solver, and runs on reusable
// workspaces: a warm Workspace solves the CP game with zero heap
// allocations (asserted by TestDuopolyWSAllocFree and tracked by
// BenchmarkDuopolyWS). The workspace paths default to the warm per-network
// utilization kernel (Market.UtilSolver; model.UtilBrent restores the
// cold bit-identical path).
//
// The qualitative predictions this enables (tested in duopoly_test.go):
// price competition pushes access prices and raises welfare relative to a
// capacity-equivalent monopolist, and subsidization remains
// revenue-improving for both competitors — the paper's argument that ISP
// competition is a complement, not a substitute, for subsidization.
//
// This package is no longer on the production path: Engine.Duopoly runs
// the N-ISP internal/oligopoly market at N = 2. It is kept as the bitwise
// N = 2 reference that internal/oligopoly/backend_test.go pins the
// generalization to, and as the market the perfbench per-layer replay
// (replayDuopoly) still exercises.
package duopoly

import (
	"errors"
	"fmt"
	"math"

	"neutralnet/internal/econ"
	"neutralnet/internal/game"
	"neutralnet/internal/model"
	"neutralnet/internal/numeric"
	"neutralnet/internal/solver"
)

// cpGridPts is the grid resolution of the per-coordinate grid+Brent
// maximization (the duopoly utility has no closed-form marginal, so every
// best response is a derivative-free search). 17 matches the historical
// hand-rolled loop, keeping the registry path bit-identical to it.
const cpGridPts = 17

// cpTol and cpMaxIter bound the CP fixed-point iteration, matching the
// historical loop.
const (
	cpTol     = 1e-7
	cpMaxIter = 200
)

// ErrCPNotConverged is returned when the CP fixed point exhausts its
// iteration budget (after any configured fallback retry). It satisfies
// errors.Is(err, game.ErrNotConverged): non-convergence is one class across
// the whole equilibrium stack. The message matches the historical string.
var ErrCPNotConverged error = game.NotConverged("duopoly: CP equilibrium did not converge")

// Market is a two-ISP access market sharing one CP catalog.
type Market struct {
	CPs   []model.CP
	Util  econ.Utilization
	Mu    [2]float64 // per-ISP capacities
	Sigma float64    // logit price sensitivity of ISP choice
	Q     float64    // subsidy cap (policy)
	// Solver names the fixed-point scheme the CP equilibrium (and the
	// monopoly benchmark) dispatch through the solver registry; the empty
	// string selects the default Gauss–Seidel, which reproduces the
	// historical hand-rolled loop bit for bit.
	Solver string
	// UtilSolver selects the utilization root kernel of the workspace
	// paths' per-network physical solves (a model workspace solver name).
	// Duopoly best-response iterations are a hot path — every utility
	// evaluation re-solves both networks' fixed points — so the empty
	// default selects the warm kernel (model.UtilBrentWarm), each root
	// find seeded from that network's previous φ within the solve;
	// model.UtilBrent restores the cold, bit-identical historical path.
	// The seed is reset at every equilibrium-solve boundary, so results
	// depend only on the solve itself, never on workspace history.
	UtilSolver string
	// Telemetry, when non-nil, receives the solver layer's decision
	// counters (the auto meta-solver's committed branch) from every CP
	// equilibrium and monopoly-benchmark solve. The pointer may be shared
	// across the parallel sweep's workers — the counters are atomic — and
	// recording never affects iterates.
	Telemetry *solver.Telemetry
	// Fallback, when non-empty and naming a different registered scheme
	// than Solver (after empty→default resolution), arms the
	// graceful-degradation ladder on the CP equilibrium: a solve that
	// exhausts its iteration budget without converging is retried once
	// through the fallback scheme from the primary's final iterate.
	// Retries are recorded in Telemetry (BranchCounts.Fallbacks).
	Fallback string
}

// utilKernel resolves the market's utilization kernel name, applying the
// warm hot-path default.
func (m *Market) utilKernel() string {
	if m.UtilSolver == "" {
		return model.UtilBrentWarm
	}
	return m.UtilSolver
}

// Validate checks the market's structural preconditions.
func (m *Market) Validate() error {
	if len(m.CPs) == 0 {
		return errors.New("duopoly: no CPs")
	}
	if m.Mu[0] <= 0 || m.Mu[1] <= 0 {
		return fmt.Errorf("duopoly: capacities must be positive: %v", m.Mu)
	}
	if m.Util == nil {
		return errors.New("duopoly: nil utilization map")
	}
	if m.Sigma < 0 || m.Q < 0 {
		return fmt.Errorf("duopoly: negative σ (%g) or q (%g)", m.Sigma, m.Q)
	}
	return nil
}

// Shares returns the logit user split (share₁, share₂) at prices (p₁, p₂).
func (m *Market) Shares(p1, p2 float64) (float64, float64) {
	e1 := math.Exp(-m.Sigma * p1)
	e2 := math.Exp(-m.Sigma * p2)
	return e1 / (e1 + e2), e2 / (e1 + e2)
}

// State is the solved two-network physical state under prices p and
// subsidies s.
//
// States produced by Market.Solve and the public equilibrium entry points
// own their slices. States produced by the workspace kernels BORROW the
// workspace's buffers and must be escaped with Clone before being retained
// past the next solve.
type State struct {
	P      [2]float64
	Shares [2]float64
	Net    [2]model.State // per-ISP utilization/populations/throughputs
}

// Clone returns a deep copy of the state, for callers that retain
// workspace-borrowed states across solves.
func (st State) Clone() State {
	st.Net[0] = st.Net[0].Clone()
	st.Net[1] = st.Net[1].Clone()
	return st
}

// TotalThroughput returns θ_i¹ + θ_i² for CP i.
func (st State) TotalThroughput(i int) float64 { return st.Net[0].Theta[i] + st.Net[1].Theta[i] }

// Revenue returns ISP k's usage revenue p_k·Σθ^k.
func (st State) Revenue(k int) float64 {
	return st.P[k] * st.Net[k].TotalThroughput()
}

// network builds ISP k's single-network system.
func (m *Market) network(k int) *model.System {
	return &model.System{CPs: m.CPs, Mu: m.Mu[k], Util: m.Util}
}

// Solve computes both networks' fixed points at prices p and subsidies s.
// It is the one-shot allocating entry; hot loops hold a Workspace.
func (m *Market) Solve(p [2]float64, s []float64) (State, error) {
	if len(s) != len(m.CPs) {
		return State{}, &game.DimensionError{Pkg: "duopoly", Got: len(s), Want: len(m.CPs)}
	}
	st := State{P: p}
	st.Shares[0], st.Shares[1] = m.Shares(p[0], p[1])
	for k := 0; k < 2; k++ {
		sys := m.network(k)
		pops := make([]float64, len(m.CPs))
		for i, cp := range m.CPs {
			pops[i] = st.Shares[k] * cp.Demand.M(p[k]-s[i])
		}
		ns, err := sys.Solve(pops)
		if err != nil {
			return State{}, fmt.Errorf("duopoly: network %d: %w", k, err)
		}
		st.Net[k] = ns
	}
	return st, nil
}

// Utility returns CP i's summed utility at the state.
func (m *Market) Utility(i int, s []float64, st State) float64 {
	return (m.CPs[i].Value - s[i]) * st.TotalThroughput(i)
}

// Workspace owns the reusable buffers of one duopoly-solving goroutine: the
// two per-network physical workspaces, the subsidy iterate, the pre-bound
// 1-D utility closure the per-CP searches run on, and the cached fixed-point
// solver instance. It is NOT safe for concurrent use. It implements
// solver.Problem over the CP best-response map, which is how the CP
// equilibrium is dispatched through the registry.
type Workspace struct {
	m      *Market
	sys    [2]model.System // stable per-network systems the physical workspaces bind to
	net    [2]*model.Workspace
	s      []float64 // subsidy iterate (borrowed by CPEquilibriumWS results)
	p      [2]float64
	shares [2]float64

	i          int // player the 1-D closure evaluates for
	utilityFn  func(float64) float64
	utilityErr error

	fp   solver.Cached // cached fixed-point instance for the last-used scheme
	fbFp solver.Cached // fallback-ladder instance, cached apart from fp
}

// NewWorkspace returns an empty workspace; buffers are sized on first bind.
func NewWorkspace() *Workspace {
	ws := &Workspace{net: [2]*model.Workspace{model.NewWorkspace(), model.NewWorkspace()}}
	ws.utilityFn = func(x float64) float64 {
		old := ws.s[ws.i]
		ws.s[ws.i] = x
		u, err := ws.utilityOne(ws.i)
		ws.s[ws.i] = old
		if err != nil {
			ws.utilityErr = err
			return math.Inf(-1)
		}
		return u
	}
	return ws
}

// bind points the workspace at market m under prices p and sizes every
// buffer for its CP count. Rebinding between markets of the same size is
// allocation-free.
func (ws *Workspace) bind(m *Market, p [2]float64) {
	ws.m = m
	ws.p = p
	ws.shares[0], ws.shares[1] = m.Shares(p[0], p[1])
	n := len(m.CPs)
	for k := 0; k < 2; k++ {
		ws.sys[k] = model.System{CPs: m.CPs, Mu: m.Mu[k], Util: m.Util}
		ws.net[k].Bind(&ws.sys[k])
	}
	if cap(ws.s) < n {
		ws.s = make([]float64, n)
	}
	ws.s = ws.s[:n]
}

// prime refreshes both networks' population buffers for the full current
// iterate; the evaluation closure afterwards only touches the component it
// varies, so a best-response search pays the full 2n-demand evaluation once.
//
//neutralnet:hotpath
func (ws *Workspace) prime() {
	for k := 0; k < 2; k++ {
		mk := ws.net[k].M()
		for i, cp := range ws.m.CPs {
			mk[i] = ws.shares[k] * cp.Demand.M(ws.p[k]-ws.s[i])
		}
	}
}

// utilityOne evaluates CP i's summed utility at the current iterate,
// re-solving both networks' fixed points after refreshing only component i
// of each population buffer. The other components are bit-identical to a
// full recompute, so the value matches the one-shot Solve path exactly.
//
//neutralnet:hotpath
func (ws *Workspace) utilityOne(i int) (float64, error) {
	total := 0.0
	for k := 0; k < 2; k++ {
		ws.net[k].M()[i] = ws.shares[k] * ws.m.CPs[i].Demand.M(ws.p[k]-ws.s[i])
		st, err := ws.sys[k].SolveInto(ws.net[k])
		if err != nil {
			return 0, fmt.Errorf("duopoly: network %d: %w", k, err)
		}
		total += st.Theta[i]
	}
	return (ws.m.CPs[i].Value - ws.s[i]) * total, nil
}

// stateWS solves both networks at the current iterate, entirely in
// workspace buffers. The returned state borrows them.
//
//neutralnet:hotpath
func (ws *Workspace) stateWS() (State, error) {
	ws.prime()
	st := State{P: ws.p, Shares: ws.shares}
	for k := 0; k < 2; k++ {
		ns, err := ws.sys[k].SolveInto(ws.net[k])
		if err != nil {
			return State{}, fmt.Errorf("duopoly: network %d: %w", k, err)
		}
		st.Net[k] = ns
	}
	return st, nil
}

// --- solver.Problem ---------------------------------------------------------

// N is the number of CP players.
func (ws *Workspace) N() int { return len(ws.m.CPs) }

// Box is the subsidy interval [0, q].
func (ws *Workspace) Box() (lo, hi float64) { return 0, ws.m.Q }

// Best computes CP i's best response against the profile x by a 17-point
// grid scan of the summed utility refined by Brent's parabolic search
// (numeric.MaximizeOnInterval; the grid matches the historical loop). The solver layer iterates on the workspace's own s buffer, so x
// normally aliases it; a defensive copy covers solvers that present a
// different iterate.
//
//neutralnet:hotpath
func (ws *Workspace) Best(i int, x []float64) (float64, error) {
	if &x[0] != &ws.s[0] {
		copy(ws.s, x)
	}
	ws.i = i
	ws.prime()
	ws.utilityErr = nil
	best := 0.0
	if ws.m.Q > 0 {
		best, _ = numeric.MaximizeOnInterval(ws.utilityFn, 0, ws.m.Q, cpGridPts)
	}
	if ws.utilityErr != nil {
		return 0, ws.utilityErr
	}
	return best, nil
}

// CPEquilibriumWS solves the CPs' subsidization game at fixed prices on the
// caller-owned workspace, dispatching the fixed-point iteration through the
// solver registry under m.Solver. warm may be nil. The returned profile and
// state BORROW the workspace's buffers — they are valid only until the next
// solve and must be copied/Cloned to be retained. A warm workspace performs
// zero heap allocations per call.
//
//neutralnet:hotpath
func (m *Market) CPEquilibriumWS(ws *Workspace, p [2]float64, warm []float64) ([]float64, State, error) {
	return m.CPEquilibriumChainWS(ws, p, warm, false)
}

// CPEquilibriumChainWS is CPEquilibriumWS for deterministic warm chains:
// with carryUtilSeed set, both networks' utilization seeds survive the
// solve boundary, so φ chains across the consecutive points of a sweep
// segment exactly as the subsidy profile does through warm. Only
// fixed-order callers may set it — a workspace carrying seeds from an
// arbitrary earlier solve would make warm-kernel results depend on
// scheduling, which is precisely what the segmented sweep's
// bit-identical-at-any-worker-count guarantee forbids.
//
//neutralnet:hotpath
func (m *Market) CPEquilibriumChainWS(ws *Workspace, p [2]float64, warm []float64, carryUtilSeed bool) ([]float64, State, error) {
	ws.bind(m, p)
	for k := 0; k < 2; k++ {
		if err := ws.net[k].SetUtilSolver(m.utilKernel()); err != nil {
			return nil, State{}, err
		}
		// Fresh seed per equilibrium solve unless the caller chains it:
		// within the solve the seed then spans the many per-network root
		// finds, which is where the warm win lives.
		if !carryUtilSeed {
			ws.net[k].ResetUtilSeed()
		}
	}
	for i := range ws.s {
		si := 0.0
		if i < len(warm) {
			si = warm[i]
		}
		ws.s[i] = numeric.Clamp(si, 0, m.Q)
	}
	fp, err := ws.fp.Get(m.Solver)
	if err != nil {
		return nil, State{}, err
	}
	solver.Attach(fp, m.Telemetry)
	res, err := fp.Solve(ws, ws.s, cpTol, cpMaxIter)
	if err != nil {
		var ce *solver.ComponentError
		if errors.As(err, &ce) {
			return nil, State{}, ce.Err
		}
		return nil, State{}, err
	}
	if !res.Converged {
		// Graceful degradation: retry once through the fallback scheme from
		// the primary's final iterate before reporting non-convergence.
		fbName, fire := solver.FallbackName(m.Solver, m.Fallback)
		if !fire {
			return nil, State{}, ErrCPNotConverged
		}
		fb, ferr := ws.fbFp.Get(fbName)
		if ferr != nil {
			return nil, State{}, ferr
		}
		m.Telemetry.RecordFallback()
		solver.Attach(fb, m.Telemetry)
		res, err = fb.Solve(ws, ws.s, cpTol, cpMaxIter)
		if err != nil {
			var ce *solver.ComponentError
			if errors.As(err, &ce) {
				return nil, State{}, ce.Err
			}
			return nil, State{}, err
		}
		if !res.Converged {
			return nil, State{}, ErrCPNotConverged
		}
	}
	st, err := ws.stateWS()
	if err != nil {
		return nil, State{}, err
	}
	return ws.s, st, nil
}

// CPEquilibrium solves the CPs' subsidization game at fixed prices. warm may
// be nil. It is the one-shot adapter over CPEquilibriumWS: it allocates a
// fresh workspace and escapes the result, so the returned profile and state
// own their slices.
func (m *Market) CPEquilibrium(p [2]float64, warm []float64) ([]float64, State, error) {
	s, st, err := m.CPEquilibriumWS(NewWorkspace(), p, warm)
	if err != nil {
		return nil, State{}, err
	}
	return append([]float64(nil), s...), st.Clone(), nil
}

// PriceEquilibrium solves the ISPs' price competition on [0, pMax] by
// alternating best responses, with the CPs re-equilibrating inside every
// revenue evaluation. One workspace threads the whole competition: each CP
// equilibrium is warm-started from the previous one and solved
// allocation-free. It returns the equilibrium prices, the CP subsidy
// profile there, and the final state; profile and state own their slices.
func (m *Market) PriceEquilibrium(pMax float64, maxRounds int) ([2]float64, []float64, State, error) {
	if err := m.Validate(); err != nil {
		return [2]float64{}, nil, State{}, err
	}
	if pMax <= 0 {
		return [2]float64{}, nil, State{}, errors.New("duopoly: pMax must be positive")
	}
	if maxRounds <= 0 {
		maxRounds = 30
	}
	p := [2]float64{pMax / 2, pMax / 2}
	ws := NewWorkspace()
	var warmBuf, warm []float64
	revenueAt := func(k int, pk float64) float64 {
		cand := p
		cand[k] = pk
		s, st, err := m.CPEquilibriumWS(ws, cand, warm)
		if err != nil {
			return math.Inf(-1)
		}
		warm = numeric.CopyProfile(&warmBuf, s)
		return st.Revenue(k)
	}
	const tol = 1e-4
	for round := 0; round < maxRounds; round++ {
		moved := 0.0
		for k := 0; k < 2; k++ {
			best, _ := numeric.MaximizeOnInterval(func(x float64) float64 { return revenueAt(k, x) }, 1e-3, pMax, 13)
			if d := math.Abs(best - p[k]); d > moved {
				moved = d
			}
			p[k] = best
		}
		if moved < tol {
			break
		}
	}
	s, st, err := m.CPEquilibriumWS(ws, p, warm)
	if err != nil {
		return p, nil, State{}, err
	}
	return p, append([]float64(nil), s...), st.Clone(), nil
}

// monoWorkspace is the single-network counterpart of Workspace behind
// MonopolyBenchmark: the capacity-equivalent monopolist's subsidization game
// as a solver.Problem over one physical workspace, with the same 17-point
// grid+Brent coordinate search as Workspace.Best (the duopoly package stays
// independent of the game package, so the miniature is expressed here
// rather than on game.Workspace).
type monoWorkspace struct {
	sys  model.System
	phys *model.Workspace
	s    []float64
	p, q float64

	i          int
	utilityFn  func(float64) float64
	utilityErr error

	fp solver.Cached // cached fixed-point instance for the last-used scheme
}

func newMonoWorkspace(sys model.System, q float64) *monoWorkspace {
	ws := &monoWorkspace{sys: sys, q: q, phys: model.NewWorkspace()}
	ws.phys.Bind(&ws.sys)
	ws.s = make([]float64, len(sys.CPs))
	ws.utilityFn = func(x float64) float64 {
		old := ws.s[ws.i]
		ws.s[ws.i] = x
		ws.phys.M()[ws.i] = ws.sys.CPs[ws.i].Demand.M(ws.p - x)
		st, err := ws.sys.SolveInto(ws.phys)
		ws.s[ws.i] = old
		if err != nil {
			ws.utilityErr = err
			return math.Inf(-1)
		}
		return (ws.sys.CPs[ws.i].Value - x) * st.Theta[ws.i]
	}
	return ws
}

func (ws *monoWorkspace) prime() {
	mk := ws.phys.M()
	for i, cp := range ws.sys.CPs {
		mk[i] = cp.Demand.M(ws.p - ws.s[i])
	}
}

func (ws *monoWorkspace) N() int                { return len(ws.sys.CPs) }
func (ws *monoWorkspace) Box() (lo, hi float64) { return 0, ws.q }
func (ws *monoWorkspace) Best(i int, x []float64) (float64, error) {
	if &x[0] != &ws.s[0] {
		copy(ws.s, x)
	}
	ws.i = i
	ws.prime()
	ws.utilityErr = nil
	best := 0.0
	if ws.q > 0 {
		best, _ = numeric.MaximizeOnInterval(ws.utilityFn, 0, ws.q, cpGridPts)
	}
	if ws.utilityErr != nil {
		return 0, ws.utilityErr
	}
	return best, nil
}

// equilibriumWS solves the monopolist's CP game at price p through the solver
// registry, warm-starting from warm. The returned profile and state borrow
// the workspace.
func (ws *monoWorkspace) equilibriumWS(m *Market, p float64, warm []float64) ([]float64, model.State, error) {
	solverName, utilKernel := m.Solver, m.utilKernel()
	if err := ws.phys.SetUtilSolver(utilKernel); err != nil {
		return nil, model.State{}, err
	}
	ws.phys.ResetUtilSeed()
	ws.p = p
	for i := range ws.s {
		si := 0.0
		if i < len(warm) {
			si = warm[i]
		}
		ws.s[i] = numeric.Clamp(si, 0, ws.q)
	}
	fp, err := ws.fp.Get(solverName)
	if err != nil {
		return nil, model.State{}, err
	}
	solver.Attach(fp, m.Telemetry)
	res, err := fp.Solve(ws, ws.s, cpTol, cpMaxIter)
	if err != nil {
		var ce *solver.ComponentError
		if errors.As(err, &ce) {
			return nil, model.State{}, ce.Err
		}
		return nil, model.State{}, err
	}
	if !res.Converged {
		return nil, model.State{}, errors.New("duopoly: monopoly benchmark did not converge")
	}
	ws.prime()
	st, err := ws.sys.SolveInto(ws.phys)
	if err != nil {
		return nil, model.State{}, err
	}
	return ws.s, st, nil
}

// MonopolyBenchmark solves the capacity-equivalent single-ISP problem
// (µ = µ₁+µ₂, all users attached) at its revenue-optimal price, for
// comparison against the duopoly outcome. The 15-point price scan threads
// one workspace, warm-starting each equilibrium from the previous price's.
func (m *Market) MonopolyBenchmark(pMax float64) (p float64, st model.State, s []float64, err error) {
	if err := m.Validate(); err != nil {
		return 0, model.State{}, nil, err
	}
	ws := newMonoWorkspace(model.System{CPs: m.CPs, Mu: m.Mu[0] + m.Mu[1], Util: m.Util}, m.Q)
	best, bestP := math.Inf(-1), 0.0
	var bestS, warmBuf, warm []float64
	for k := 1; k <= 15; k++ {
		pk := pMax * float64(k) / 15
		sk, stk, err := ws.equilibriumWS(m, pk, warm)
		if err != nil {
			return 0, model.State{}, nil, err
		}
		warm = numeric.CopyProfile(&warmBuf, sk)
		if r := pk * stk.TotalThroughput(); r > best {
			best, bestP = r, pk
			bestS = append(bestS[:0], sk...)
		}
	}
	sFin, stFin, err := ws.equilibriumWS(m, bestP, bestS)
	if err != nil {
		return 0, model.State{}, nil, err
	}
	return bestP, stFin.Clone(), append([]float64(nil), sFin...), nil
}

// Welfare returns Σ v_i·(θ_i¹+θ_i²) at a duopoly state.
func (m *Market) Welfare(st State) float64 {
	w := 0.0
	for i, cp := range m.CPs {
		w += cp.Value * st.TotalThroughput(i)
	}
	return w
}
