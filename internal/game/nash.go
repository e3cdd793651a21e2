package game

import (
	"errors"
	"fmt"

	"neutralnet/internal/model"
	"neutralnet/internal/numeric"
	"neutralnet/internal/solver"
)

// Method names the fixed-point scheme the Nash iteration runs under. It is
// a solver-registry name (see internal/solver), so any registered scheme —
// including ones added by future packages — can be selected by string;
// the empty string selects Gauss–Seidel.
type Method string

const (
	// GaussSeidel iterates best responses sequentially, each CP reacting to
	// the freshest profile. It is the default: fastest and most robust for
	// the Leontief-stable games the paper studies.
	GaussSeidel Method = solver.GaussSeidelName
	// JacobiDamped iterates all best responses simultaneously with damping
	// 0.5. It is kept as an ablation (BenchmarkAblationSolver) and as a
	// fallback for games where sequential updates cycle.
	JacobiDamped Method = solver.JacobiDampedName
	// Anderson runs Anderson-accelerated fixed-point iteration (depth-m
	// residual mixing) over the simultaneous best-response map, with a
	// safeguarded fallback to Gauss–Seidel sweeps when the map is not
	// contractive.
	Anderson Method = solver.AndersonName
	// SOR is successive over-relaxation on the sequential best-response
	// map (Gauss–Seidel with a tunable relaxation factor at the solver
	// layer; ω = 1 is exactly Gauss–Seidel).
	SOR Method = solver.SORName
	// JacobiAdaptive is the simultaneous map under residual-driven
	// adaptive damping: the damping grows while the iteration contracts
	// and shrinks on oscillation.
	JacobiAdaptive Method = solver.JacobiAdaptiveName
	// Auto is the meta-solver: Gauss–Seidel probe sweeps, then a switch to
	// SOR or Anderson when the observed contraction is slow, safeguarded
	// like the Anderson path. Bit-identical to GaussSeidel on
	// fast-contracting games.
	Auto Method = solver.AutoName
)

// Best-response bracketing policies for Options.BRSeed.
const (
	// BRAuto couples the bracket policy to the utilization kernel: seeded
	// when a warm kernel (model.UtilBrentWarm, model.UtilNewton) is
	// selected, cold under the default cold Brent. Selecting the cold
	// kernel therefore restores the fully bit-identical historical path.
	BRAuto = ""
	// BRCold always brackets each best-response root-find from the box
	// endpoints [0, q] — the historical, bit-identical policy.
	BRCold = "cold"
	// BRSeeded always grows each best-response bracket outward from the
	// freshest iterate value. Same root to Brent tolerance (1e-11), fewer
	// marginal evaluations when the iterate is near the answer (warm-start
	// chains, late outer sweeps); not bit-identical to the cold policy.
	BRSeeded = "seeded"
)

// Options configures SolveNash. The zero value selects sensible defaults.
type Options struct {
	Method  Method
	Tol     float64   // sup-norm convergence tolerance on s (default 1e-9)
	MaxIter int       // default 400
	Initial []float64 // warm start (default: zero profile)
	// UtilSolver selects the inner utilization root kernel (a model
	// workspace solver name: model.UtilBrent, model.UtilBrentWarm,
	// model.UtilNewton). Empty selects the cold Brent default, which is
	// bit-identical to the historical path; the warm kernels seed each root
	// find from the previous φ and are not bit-identical.
	UtilSolver string
	// BRSeed selects the best-response bracketing policy (BRAuto, BRCold,
	// BRSeeded). The BRAuto zero value ties it to the utilization kernel,
	// so hot paths that flip to a warm kernel get seeded brackets for free
	// and the cold kernel stays exactly the historical path.
	BRSeed string
	// CarryUtilSeed keeps the workspace's utilization warm-start seed from
	// the previous solve instead of resetting it at the solve boundary.
	// Only deterministic-order callers may set it (sweep chains after their
	// first point, epoch trajectories): a pooled workspace carrying a seed
	// from an arbitrary earlier solve would make warm-kernel results
	// scheduling-dependent.
	CarryUtilSeed bool
	// Telemetry, when non-nil, receives the scheme's decision counters —
	// the auto meta-solver's committed branch and the fallback ladder's
	// retries, one count per decision. Plain schemes record nothing. The
	// Engine threads its per-session telemetry here; the pointer may be
	// shared across sweep workers (the counters are atomic), and recording
	// never affects iterates, so determinism guarantees are unchanged.
	Telemetry *solver.Telemetry
	// Fallback, when non-empty and naming a different scheme than Method
	// (after empty→default resolution), arms the graceful-degradation
	// ladder: a solve that exhausts MaxIter without converging is retried
	// once through the fallback scheme, continuing from the primary's final
	// iterate under the same tolerance and budget. Gauss–Seidel — the
	// scheme the subsidization game provably converges under (Theorem 4's
	// contraction) — is the intended rung. Retries are recorded in
	// Telemetry (BranchCounts.Fallbacks); the returned Iterations is the
	// two rungs' sum. An unknown fallback name only surfaces when the
	// ladder fires — the happy path never resolves it.
	Fallback Method
}

// Equilibrium is a solved Nash equilibrium of the subsidization game,
// bundled with the induced physical state and player utilities.
//
// Equilibria returned by SolveNash own their slices. Equilibria returned
// by SolveNashWS BORROW the workspace's buffers (S, U, State.M,
// State.Theta all alias workspace storage): they are valid only until the
// workspace's next solve, and any retention — caches, sweep result tables,
// warm-start stores — must go through Clone.
type Equilibrium struct {
	S          []float64   // subsidy profile
	State      model.State // utilization, populations, throughputs at S
	U          []float64   // player utilities U_i = (v_i − s_i)·θ_i
	Iterations int         // outer iterations used
	Converged  bool
}

// Clone returns a deep copy of the equilibrium. Callers that retain
// equilibria across solves (caches, warm-start stores) must clone so later
// mutations of the returned slices cannot corrupt the stored profile —
// and, for workspace-solved equilibria, so the copy survives the
// workspace's next solve.
func (e Equilibrium) Clone() Equilibrium {
	c := e
	c.S = append([]float64(nil), e.S...)
	c.U = append([]float64(nil), e.U...)
	c.State = e.State.Clone()
	return c
}

// Revenue returns the ISP revenue p·Σθ at the equilibrium of game g.
func (e Equilibrium) Revenue(g *Game) float64 { return g.Revenue(e.State) }

// Welfare returns the system welfare Σ v_i θ_i at the equilibrium of game g.
func (e Equilibrium) Welfare(g *Game) float64 { return g.Welfare(e.State) }

// ErrNotConverged is returned (alongside the best iterate) when the Nash
// iteration hits its budget before meeting tolerance.
var ErrNotConverged = errors.New("game: Nash iteration did not converge")

// BestResponse returns CP i's utility-maximizing subsidy on [0, q] against
// the profile s (s[i] is ignored). It exploits the first-order structure:
// when U_i is concave in s_i — which holds under the Theorem 4 condition —
// the best response is the root of the marginal utility u_i, clipped to the
// box. Corner cases:
//
//	u_i(0; s_{−i}) ≤ 0  ⇒  best response 0 (Theorem 3's non-subsidизing CPs),
//	u_i(q; s_{−i}) ≥ 0  ⇒  best response q (policy-capped CPs, the N⁺ set).
//
// If the marginal utility fails to bracket (e.g. under non-concave custom
// curves), it falls back to BestResponseSearch.
//
// It is the one-shot adapter over the workspace kernel bestResponseWS;
// hot loops hold a Workspace and solve through SolveNashWS instead.
func (g *Game) BestResponse(i int, s []float64) (float64, error) {
	return g.BestResponseWS(NewWorkspace(), i, s)
}

// BestResponseWS is BestResponse on a caller-owned workspace: the
// allocation-free path for adjustment dynamics and other loops that evaluate
// many best responses. The profile s is copied into the workspace, so the
// caller's slice is never retained.
func (g *Game) BestResponseWS(ws *Workspace, i int, s []float64) (float64, error) {
	if len(s) != g.N() {
		return 0, dimensionError(len(s), g.N())
	}
	ws.bind(g)
	copy(ws.s, s)
	return g.bestResponseWS(ws, i)
}

// BestResponseSearch maximizes U_i(·; s_{−i}) on [0, q] by grid scan plus
// Brent parabolic refinement. It makes no concavity assumption and is the
// fallback (and ablation) path for BestResponse.
func (g *Game) BestResponseSearch(i int, s []float64) (float64, error) {
	if len(s) != g.N() {
		return 0, dimensionError(len(s), g.N())
	}
	ws := NewWorkspace()
	ws.bind(g)
	copy(ws.s, s)
	return g.bestResponseSearchWS(ws, i)
}

// SolveNash computes a Nash equilibrium of the subsidization game under the
// given options. With Q = 0 it degenerates to the one-sided pricing baseline
// in a single step. The returned equilibrium is always populated with the
// final iterate, even when ErrNotConverged is reported.
//
// It is the one-shot adapter over SolveNashWS: it allocates a fresh
// workspace and escapes the result with Clone, so the returned equilibrium
// owns its slices.
func (g *Game) SolveNash(opts Options) (Equilibrium, error) {
	eq, err := g.SolveNashWS(NewWorkspace(), opts)
	return eq.Clone(), err
}

// SolveNashWS is SolveNash on a caller-owned workspace: the allocation-free
// hot path of the equilibrium stack. A warm workspace (buffers sized, solver
// instantiated) performs zero heap allocations per call. The returned
// equilibrium BORROWS the workspace's buffers — it is valid only until the
// workspace's next solve and must be escaped with Clone to be retained.
func (g *Game) SolveNashWS(ws *Workspace, opts Options) (Equilibrium, error) {
	ws.bind(g)
	if err := ws.SetUtilSolver(opts.UtilSolver); err != nil {
		return Equilibrium{}, err
	}
	// Each Nash solve starts from a fresh utilization seed unless the
	// caller explicitly carries it: pooled and sweep-worker workspaces are
	// reused across unrelated solves, and a seed inherited from an
	// arbitrary previous solve would make warm kernels
	// scheduling-dependent (breaking the bit-identical-at-any-worker-count
	// sweep guarantee). Deterministic chains (sweep segments, epoch
	// trajectories) set CarryUtilSeed so the seed survives the boundary;
	// within one solve it always chains across the many inner root finds.
	if !opts.CarryUtilSeed {
		ws.phys.ResetUtilSeed()
	}
	switch opts.BRSeed {
	case BRAuto:
		ws.seedBR = ws.phys.UtilSolver() != model.UtilBrent
	case BRCold:
		ws.seedBR = false
	case BRSeeded:
		ws.seedBR = true
	default:
		return Equilibrium{}, fmt.Errorf("game: unknown best-response bracket policy %q", opts.BRSeed)
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-9
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 400
	}
	for i := range ws.s {
		si := 0.0
		if i < len(opts.Initial) {
			si = opts.Initial[i]
		}
		ws.s[i] = numeric.Clamp(si, 0, g.Q)
	}

	fp, err := ws.solverFor(opts.Method)
	if err != nil {
		return Equilibrium{}, err
	}
	solver.Attach(fp, opts.Telemetry)
	res, err := fp.Solve(ws, ws.s, tol, maxIter)
	if err != nil {
		var ce *solver.ComponentError
		if errors.As(err, &ce) {
			return Equilibrium{S: ws.s}, fmt.Errorf("game: best response of CP %d: %w", ce.I, ce.Err)
		}
		return Equilibrium{S: ws.s}, err
	}

	if !res.Converged {
		if fb, ok, ferr := ws.fallbackFor(opts.Method, opts.Fallback); ferr != nil {
			return Equilibrium{S: ws.s, Iterations: res.Iterations}, ferr
		} else if ok {
			// Graceful degradation: retry the point through the fallback
			// scheme from the primary's final iterate — the warm chain and
			// utilization seed carry straight through, so the ladder costs
			// only the extra sweeps it actually runs.
			opts.Telemetry.RecordFallback()
			solver.Attach(fb, opts.Telemetry)
			prior := res.Iterations
			res, err = fb.Solve(ws, ws.s, tol, maxIter)
			if err != nil {
				var ce *solver.ComponentError
				if errors.As(err, &ce) {
					return Equilibrium{S: ws.s}, fmt.Errorf("game: best response of CP %d: %w", ce.I, ce.Err)
				}
				return Equilibrium{S: ws.s}, err
			}
			res.Iterations += prior
		}
	}

	st, err := g.stateWS(ws)
	if err != nil {
		return Equilibrium{S: ws.s, Iterations: res.Iterations}, err
	}
	g.utilitiesInto(ws.u, ws.s, st)
	eq := Equilibrium{
		S:          ws.s,
		State:      st,
		U:          ws.u,
		Iterations: res.Iterations,
		Converged:  res.Converged,
	}
	if !res.Converged {
		return eq, ErrNotConverged
	}
	return eq, nil
}
