// Package oligopoly generalizes the duopoly package's two-ISP access
// competition to N competing access networks sharing one CP population —
// the paper's §6 competition direction taken to its natural market
// structure. N access ISPs with capacities µ₁..µ_N set usage prices
// p₁..p_N; users split across them by the same logit price-attraction rule
// (softmax over −σ·p_k), each CP chooses one subsidy s_i ∈ [0, q] that
// applies on every network, and each network forms its own utilization
// fixed point. On top of the CPs' equilibrium the ISPs compete in prices by
// sequential best responses on revenue.
//
// The package is the duopoly machinery with the player count lifted from 2
// to N, statement for statement: the CP equilibrium is a solver.Problem
// dispatched through the shared fixed-point registry (Market.Solver selects
// any registered scheme, including "auto"; Market.Telemetry observes the
// meta-solver's branches), solves run on a reusable Workspace whose warm
// path performs zero heap allocations (TestOligopolyWSAllocFree), and the
// per-network utilization kernels default warm with the same
// reset-at-solve-boundary / carry-within-chain discipline
// (CPEquilibriumChainWS). Because every float operation is performed in the
// same order as the duopoly code, the N = 2 instance reproduces
// duopoly.Market bit for bit and the N = 1 instance reproduces the
// capacity-equivalent monopoly benchmark bit for bit — pinned by the
// equivalence suite in backend_test.go, which is what makes the
// generalization trustworthy.
package oligopoly

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
// maximization, matching the duopoly (and historical) 17-point search so
// the N = 2 best responses are bit-identical to duopoly.Workspace.Best.
const cpGridPts = 17

// cpTol and cpMaxIter bound the CP fixed-point iteration, matching the
// duopoly constants.
const (
	cpTol     = 1e-7
	cpMaxIter = 200
)

// ErrCPNotConverged is returned when the CP fixed point exhausts its
// iteration budget (after any configured fallback retry). It satisfies
// errors.Is(err, game.ErrNotConverged), like the duopoly sentinel; the
// message matches the historical string.
var ErrCPNotConverged error = game.NotConverged("oligopoly: CP equilibrium did not converge")

// Market is an N-ISP access market sharing one CP catalog. The player count
// is len(Mu).
type Market struct {
	CPs   []model.CP
	Util  econ.Utilization
	Mu    []float64 // per-ISP capacities; len(Mu) = N ≥ 1
	Sigma float64   // logit price sensitivity of ISP choice
	Q     float64   // subsidy cap (policy)
	// Solver names the fixed-point scheme the CP equilibrium (and the
	// monopoly benchmark) dispatch through the solver registry; the empty
	// string selects the default Gauss–Seidel.
	Solver string
	// UtilSolver selects the utilization root kernel of the workspace
	// paths' per-network physical solves (a model workspace solver name).
	// The empty default selects the warm kernel (model.UtilBrentWarm), as
	// in the duopoly; model.UtilBrent restores the cold bit-identical
	// path. Seeds reset at every equilibrium-solve boundary, so results
	// depend only on the solve itself, never on workspace history.
	UtilSolver string
	// Telemetry, when non-nil, receives the solver layer's decision
	// counters from every CP equilibrium and monopoly-benchmark solve. The
	// pointer may be shared across parallel sweep workers — the counters
	// are atomic — and recording never affects iterates.
	Telemetry *solver.Telemetry
	// Fallback, when non-empty and naming a different registered scheme
	// than Solver (after empty→default resolution), arms the
	// graceful-degradation ladder on the CP equilibrium: a solve that
	// exhausts its iteration budget without converging is retried once
	// through the fallback scheme from the primary's final iterate.
	// Retries are recorded in Telemetry (BranchCounts.Fallbacks).
	Fallback string
}

// Players returns N, the number of competing access ISPs.
func (m *Market) Players() int { return len(m.Mu) }

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
		return errors.New("oligopoly: no CPs")
	}
	if len(m.Mu) == 0 {
		return errors.New("oligopoly: no ISPs (empty capacity vector)")
	}
	for k, mu := range m.Mu {
		if mu <= 0 {
			return fmt.Errorf("oligopoly: capacity %d must be positive, got %g", k, mu)
		}
	}
	if m.Util == nil {
		return errors.New("oligopoly: nil utilization map")
	}
	if m.Sigma < 0 || m.Q < 0 {
		return fmt.Errorf("oligopoly: negative σ (%g) or q (%g)", m.Sigma, m.Q)
	}
	return nil
}

// SharesInto writes the logit user split across the N ISPs at prices p into
// dst (both of length N): dst[k] = e^{−σ·p_k} / Σ_j e^{−σ·p_j}. The
// accumulation order matches duopoly.Market.Shares, so the N = 2 split is
// bit-identical to it.
//
//neutralnet:hotpath
func (m *Market) SharesInto(dst, p []float64) {
	sum := 0.0
	for k := range dst {
		dst[k] = math.Exp(-m.Sigma * p[k])
		sum += dst[k]
	}
	for k := range dst {
		dst[k] /= sum
	}
}

// Shares returns the logit user split at prices p as a fresh slice.
func (m *Market) Shares(p []float64) []float64 {
	dst := make([]float64, len(p))
	m.SharesInto(dst, p)
	return dst
}

// State is the solved N-network physical state under prices p and
// subsidies s.
//
// States produced by Market.Solve and the public equilibrium entry points
// own their slices. States produced by the workspace kernels BORROW the
// workspace's buffers and must be escaped with Clone before being retained
// past the next solve.
type State struct {
	P      []float64
	Shares []float64
	Net    []model.State // per-ISP utilization/populations/throughputs
}

// Clone returns a deep copy of the state, for callers that retain
// workspace-borrowed states across solves.
func (st State) Clone() State {
	st.P = append([]float64(nil), st.P...)
	st.Shares = append([]float64(nil), st.Shares...)
	net := make([]model.State, len(st.Net))
	for k := range st.Net {
		net[k] = st.Net[k].Clone()
	}
	st.Net = net
	return st
}

// TotalThroughput returns Σ_k θ_i^k for CP i across all networks.
func (st State) TotalThroughput(i int) float64 {
	total := 0.0
	for k := range st.Net {
		total += st.Net[k].Theta[i]
	}
	return total
}

// Revenue returns ISP k's usage revenue p_k·Σθ^k.
func (st State) Revenue(k int) float64 {
	return st.P[k] * st.Net[k].TotalThroughput()
}

// Solve computes all networks' fixed points at prices p and subsidies s.
// It is the one-shot allocating entry; hot loops hold a Workspace.
func (m *Market) Solve(p, s []float64) (State, error) {
	if len(p) != len(m.Mu) {
		return State{}, fmt.Errorf("oligopoly: %d prices for %d ISPs", len(p), len(m.Mu))
	}
	if len(s) != len(m.CPs) {
		return State{}, &game.DimensionError{Pkg: "oligopoly", Got: len(s), Want: len(m.CPs)}
	}
	st := State{
		P:      append([]float64(nil), p...),
		Shares: m.Shares(p),
		Net:    make([]model.State, len(m.Mu)),
	}
	for k := range m.Mu {
		sys := &model.System{CPs: m.CPs, Mu: m.Mu[k], Util: m.Util}
		pops := make([]float64, len(m.CPs))
		for i, cp := range m.CPs {
			pops[i] = st.Shares[k] * cp.Demand.M(p[k]-s[i])
		}
		ns, err := sys.Solve(pops)
		if err != nil {
			return State{}, fmt.Errorf("oligopoly: network %d: %w", k, err)
		}
		st.Net[k] = ns
	}
	return st, nil
}

// Utility returns CP i's summed utility (v_i − s_i)·Σ_k θ_i^k at the state.
func (m *Market) Utility(i int, s []float64, st State) float64 {
	return (m.CPs[i].Value - s[i]) * st.TotalThroughput(i)
}

// Workspace owns the reusable buffers of one oligopoly-solving goroutine:
// the N per-network physical workspaces, the subsidy iterate, the pre-bound
// 1-D utility closure the per-CP searches run on, and the cached fixed-point
// solver instance. It is NOT safe for concurrent use. It implements
// solver.Problem over the CP best-response map, which is how the CP
// equilibrium is dispatched through the registry.
type Workspace struct {
	m      *Market
	sys    []model.System // stable per-network systems the physical workspaces bind to
	net    []*model.Workspace
	states []model.State // per-network state buffer (borrowed by stateWS results)
	s      []float64     // subsidy iterate (borrowed by CPEquilibriumWS results)
	p      []float64
	shares []float64

	i          int // player the 1-D closure evaluates for
	utilityFn  func(float64) float64
	utilityErr error
	evals      int // utility evaluations run by utilityFn since construction

	fp   solver.Cached // cached fixed-point instance for the last-used scheme
	fbFp solver.Cached // fallback-ladder instance, cached apart from fp
}

// NewWorkspace returns an empty workspace; buffers are sized on first bind.
func NewWorkspace() *Workspace {
	ws := &Workspace{}
	ws.utilityFn = func(x float64) float64 {
		ws.evals++
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

// UtilityEvals reports how many summed-utility evaluations the workspace's
// best-response searches have run since construction: the work count of
// the best-response layer, one N-network utilization solve each.
func (ws *Workspace) UtilityEvals() int { return ws.evals }

// bind points the workspace at market m under prices p and sizes every
// buffer for its ISP and CP counts. Rebinding between markets of the same
// shape is allocation-free.
func (ws *Workspace) bind(m *Market, p []float64) {
	ws.m = m
	nISP := len(m.Mu)
	if cap(ws.net) < nISP {
		grown := make([]*model.Workspace, nISP)
		copy(grown, ws.net)
		for k := len(ws.net); k < nISP; k++ {
			grown[k] = model.NewWorkspace()
		}
		ws.net = grown
		ws.sys = make([]model.System, nISP)
		ws.states = make([]model.State, nISP)
		ws.p = make([]float64, nISP)
		ws.shares = make([]float64, nISP)
	}
	ws.net = ws.net[:nISP]
	ws.sys = ws.sys[:nISP]
	ws.states = ws.states[:nISP]
	ws.p = ws.p[:nISP]
	ws.shares = ws.shares[:nISP]
	copy(ws.p, p)
	m.SharesInto(ws.shares, ws.p)
	n := len(m.CPs)
	for k := 0; k < nISP; k++ {
		ws.sys[k] = model.System{CPs: m.CPs, Mu: m.Mu[k], Util: m.Util}
		ws.net[k].Bind(&ws.sys[k])
	}
	if cap(ws.s) < n {
		ws.s = make([]float64, n)
	}
	ws.s = ws.s[:n]
}

// prime refreshes every network's population buffer for the full current
// iterate; the evaluation closure afterwards only touches the component it
// varies, so a best-response search pays the full N·n-demand evaluation
// once.
//
//neutralnet:hotpath
func (ws *Workspace) prime() {
	for k := range ws.net {
		mk := ws.net[k].M()
		for i, cp := range ws.m.CPs {
			mk[i] = ws.shares[k] * cp.Demand.M(ws.p[k]-ws.s[i])
		}
	}
}

// utilityOne evaluates CP i's summed utility at the current iterate,
// re-solving every network's fixed point after refreshing only component i
// of each population buffer. The other components are bit-identical to a
// full recompute, so the value matches the one-shot Solve path exactly.
//
//neutralnet:hotpath
func (ws *Workspace) utilityOne(i int) (float64, error) {
	total := 0.0
	for k := range ws.net {
		ws.net[k].M()[i] = ws.shares[k] * ws.m.CPs[i].Demand.M(ws.p[k]-ws.s[i])
		st, err := ws.sys[k].SolveInto(ws.net[k])
		if err != nil {
			return 0, fmt.Errorf("oligopoly: network %d: %w", k, err)
		}
		total += st.Theta[i]
	}
	return (ws.m.CPs[i].Value - ws.s[i]) * total, nil
}

// stateWS solves every network at the current iterate, entirely in
// workspace buffers. The returned state borrows them.
//
//neutralnet:hotpath
func (ws *Workspace) stateWS() (State, error) {
	ws.prime()
	st := State{P: ws.p, Shares: ws.shares, Net: ws.states}
	for k := range ws.net {
		ns, err := ws.sys[k].SolveInto(ws.net[k])
		if err != nil {
			return State{}, fmt.Errorf("oligopoly: network %d: %w", k, err)
		}
		ws.states[k] = ns
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
// (numeric.MaximizeOnInterval, the same search as the duopoly). The
// solver layer iterates on the workspace's own s buffer, so x normally
// aliases it; a defensive copy covers solvers that present a different
// iterate.
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
func (m *Market) CPEquilibriumWS(ws *Workspace, p []float64, warm []float64) ([]float64, State, error) {
	return m.CPEquilibriumChainWS(ws, p, warm, false)
}

// CPEquilibriumChainWS is CPEquilibriumWS for deterministic warm chains:
// with carryUtilSeed set, every network's utilization seed survives the
// solve boundary, so φ chains across the consecutive points of a sweep
// segment exactly as the subsidy profile does through warm. Only
// fixed-order callers may set it — a workspace carrying seeds from an
// arbitrary earlier solve would make warm-kernel results depend on
// scheduling, which the segmented sweep's bit-identical-at-any-worker-count
// guarantee forbids.
//
//neutralnet:hotpath
func (m *Market) CPEquilibriumChainWS(ws *Workspace, p []float64, warm []float64, carryUtilSeed bool) ([]float64, State, error) {
	if len(p) != len(m.Mu) {
		return nil, State{}, fmt.Errorf("oligopoly: %d prices for %d ISPs", len(p), len(m.Mu))
	}
	ws.bind(m, p)
	for k := range ws.net {
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
func (m *Market) CPEquilibrium(p []float64, warm []float64) ([]float64, State, error) {
	s, st, err := m.CPEquilibriumWS(NewWorkspace(), p, warm)
	if err != nil {
		return nil, State{}, err
	}
	return append([]float64(nil), s...), st.Clone(), nil
}

// PriceEquilibrium solves the ISPs' price competition on [0, pMax] by
// sequential best responses in player order, with the CPs re-equilibrating
// inside every revenue evaluation. One workspace threads the whole
// competition: each CP equilibrium is warm-started from the previous one
// and solved allocation-free. It returns the equilibrium prices, the CP
// subsidy profile there, and the final state; all returned slices are
// owned. The search constants match duopoly.Market.PriceEquilibrium, so the
// N = 2 competition is bit-identical to it.
func (m *Market) PriceEquilibrium(pMax float64, maxRounds int) ([]float64, []float64, State, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, State{}, err
	}
	if pMax <= 0 {
		return nil, nil, State{}, errors.New("oligopoly: pMax must be positive")
	}
	if maxRounds <= 0 {
		maxRounds = 30
	}
	p := make([]float64, len(m.Mu))
	for k := range p {
		p[k] = pMax / 2
	}
	ws := NewWorkspace()
	cand := make([]float64, len(p))
	var warmBuf, warm []float64
	revenueAt := func(k int, pk float64) float64 {
		copy(cand, p)
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
		for k := range p {
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

// MonopolyBenchmark solves the capacity-equivalent single-ISP problem
// (µ = Σ_k µ_k, all users attached) at its revenue-optimal price, for
// comparison against the oligopoly outcome. It is implemented as the N = 1
// special case of the market itself: a one-ISP market attaches every user
// (the logit share of a single player is exactly 1), so the 15-point
// warm-chained price scan reproduces duopoly.Market.MonopolyBenchmark bit
// for bit.
func (m *Market) MonopolyBenchmark(pMax float64) (p float64, st model.State, s []float64, err error) {
	if err := m.Validate(); err != nil {
		return 0, model.State{}, nil, err
	}
	muTotal := 0.0
	for _, mu := range m.Mu {
		muTotal += mu
	}
	mono := Market{
		CPs: m.CPs, Util: m.Util, Mu: []float64{muTotal},
		Sigma: m.Sigma, Q: m.Q,
		Solver: m.Solver, UtilSolver: m.UtilSolver, Telemetry: m.Telemetry,
	}
	ws := NewWorkspace()
	pk := make([]float64, 1)
	best, bestP := math.Inf(-1), 0.0
	var bestS, warmBuf, warm []float64
	for k := 1; k <= 15; k++ {
		pk[0] = pMax * float64(k) / 15
		sk, stk, err := mono.CPEquilibriumWS(ws, pk, warm)
		if err != nil {
			return 0, model.State{}, nil, err
		}
		warm = numeric.CopyProfile(&warmBuf, sk)
		if r := pk[0] * stk.Net[0].TotalThroughput(); r > best {
			best, bestP = r, pk[0]
			bestS = append(bestS[:0], sk...)
		}
	}
	pk[0] = bestP
	sFin, stFin, err := mono.CPEquilibriumWS(ws, pk, bestS)
	if err != nil {
		return 0, model.State{}, nil, err
	}
	return bestP, stFin.Net[0].Clone(), append([]float64(nil), sFin...), nil
}

// Welfare returns Σ_i v_i·Σ_k θ_i^k at an oligopoly state.
func (m *Market) Welfare(st State) float64 {
	w := 0.0
	for i, cp := range m.CPs {
		w += cp.Value * st.TotalThroughput(i)
	}
	return w
}
