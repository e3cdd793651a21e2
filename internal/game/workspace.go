package game

import (
	"math"

	"neutralnet/internal/model"
	"neutralnet/internal/numeric"
	"neutralnet/internal/solver"
)

// This file is the allocation-free evaluation core of the game layer. A
// Workspace bundles the model-layer buffers with the game-level iterate,
// the pre-bound 1-D closures the per-CP root-finds run on, and the cached
// fixed-point solver instance. A warm workspace lets a full Nash solve
// (outer iteration × per-CP Brent root-find × utilization fixed point)
// run with zero heap allocations: the historical per-evaluation slice
// churn (EffectivePrices, withSubsidy copies, PopulationsAt, fresh States)
// all becomes in-place writes into workspace buffers, and withSubsidy in
// particular becomes a swap/restore of a single element of the iterate.
//
// The Workspace also implements solver.Problem, which is how the Nash
// iteration is handed to the pluggable internal/solver layer.

// Workspace owns the reusable buffers of one solving goroutine. It is NOT
// safe for concurrent use: each worker holds its own. Equilibria returned
// by SolveNashWS borrow the workspace's buffers and must be escaped with
// Equilibrium.Clone before being retained past the next solve.
type Workspace struct {
	phys *model.Workspace
	t    []float64 // effective prices t_j = p − s_j
	s    []float64 // subsidy iterate (borrowed by Equilibrium.S)
	u    []float64 // player utilities (borrowed by Equilibrium.U)

	g *Game // currently bound game
	i int   // player the 1-D closures evaluate for

	// seedBR selects the seeded best-response bracket (grown around the
	// freshest iterate) over the cold [0, q] bracketing. Set per solve by
	// SolveNashWS from Options.BRSeed; bind resets it so the other
	// workspace entry points stay on the historical cold path.
	seedBR bool

	// marginalFn evaluates u_i(s_{−i}, x) — the marginal utility of player
	// ws.i with its own subsidy swapped to x — returning NaN on solve
	// failure. utilityFn likewise evaluates U_i. Both are allocated once
	// here so the inner root-finds never close over fresh state.
	marginalFn func(float64) float64
	utilityFn  func(float64) float64
	utilityErr error

	// fp caches the solver instance for the last-used method, so repeated
	// solves do not re-instantiate (or re-allocate) the scheme's scratch.
	fp solver.Cached
	// fbFp caches the fallback-ladder instance separately, so a firing
	// ladder never evicts the primary from fp (Cached holds one instance).
	fbFp solver.Cached
}

// NewWorkspace returns an empty workspace; buffers are sized on first bind.
func NewWorkspace() *Workspace {
	ws := &Workspace{phys: model.NewWorkspace()}
	ws.marginalFn = func(x float64) float64 {
		old := ws.s[ws.i]
		ws.s[ws.i] = x
		st, err := ws.g.stateOneWS(ws, ws.i)
		v := math.NaN()
		if err == nil {
			v = ws.g.marginalWS(ws, st)
		}
		ws.s[ws.i] = old
		return v
	}
	ws.utilityFn = func(x float64) float64 {
		old := ws.s[ws.i]
		ws.s[ws.i] = x
		st, err := ws.g.stateOneWS(ws, ws.i)
		ws.s[ws.i] = old
		if err != nil {
			ws.utilityErr = err
			return math.Inf(-1)
		}
		return ws.g.utilityAt(ws.i, x, st)
	}
	return ws
}

// bind points the workspace at g and sizes every buffer for g.N() players.
func (ws *Workspace) bind(g *Game) {
	ws.g = g
	ws.seedBR = false
	ws.phys.Bind(g.Sys)
	n := g.N()
	if cap(ws.t) < n {
		ws.t = make([]float64, n)
		ws.s = make([]float64, n)
		ws.u = make([]float64, n)
	}
	ws.t = ws.t[:n]
	ws.s = ws.s[:n]
	ws.u = ws.u[:n]
}

// solverFor returns the cached fixed-point solver for method m,
// instantiating (and caching) it on first use or method change.
func (ws *Workspace) solverFor(m Method) (solver.FixedPoint, error) {
	return ws.fp.Get(string(m))
}

// fallbackFor resolves the fallback-ladder rung for a primary/fallback
// method pair: ok reports whether the ladder should fire (a fallback is
// configured and names a different scheme than the primary after the
// empty→default resolution both share). The instance comes from the
// dedicated fbFp cache so the primary instance stays cached in fp.
func (ws *Workspace) fallbackFor(primary, fallback Method) (fp solver.FixedPoint, ok bool, err error) {
	fbName, fire := solver.FallbackName(string(primary), string(fallback))
	if !fire {
		return nil, false, nil
	}
	fp, err = ws.fbFp.Get(fbName)
	if err != nil {
		return nil, false, err
	}
	return fp, true, nil
}

// stateWS solves the physical state induced by the workspace's current
// subsidy iterate, entirely in workspace buffers. The returned state
// borrows them. Operation order matches the allocating Game.State exactly,
// so results are bit-identical.
//
//neutralnet:hotpath
func (g *Game) stateWS(ws *Workspace) (model.State, error) {
	for j := range ws.t {
		ws.t[j] = g.P - ws.s[j]
	}
	g.Sys.PopulationsInto(ws.phys.M(), ws.t)
	return g.Sys.SolveInto(ws.phys)
}

// prime refreshes the effective-price and population buffers for the full
// current iterate. The per-CP evaluation closures afterwards only touch the
// one component they vary (stateOneWS), so a best-response root-find pays
// the full n-CP demand evaluation exactly once.
//
//neutralnet:hotpath
func (ws *Workspace) prime() {
	g := ws.g
	for j := range ws.t {
		ws.t[j] = g.P - ws.s[j]
	}
	g.Sys.PopulationsInto(ws.phys.M(), ws.t)
}

// stateOneWS re-solves the physical state assuming only component i of the
// iterate changed since the last prime/eval: it refreshes t_i and m_i and
// re-solves the utilization fixed point over the buffered populations. The
// other CPs' demand values are bit-identical to a full recompute, so the
// state matches stateWS exactly.
func (g *Game) stateOneWS(ws *Workspace, i int) (model.State, error) {
	ws.t[i] = g.P - ws.s[i]
	ws.phys.M()[i] = g.Sys.CPs[i].Demand.M(ws.t[i])
	return g.Sys.SolveInto(ws.phys)
}

// brSeedFrac is the initial bracket half-width of the seeded best-response
// root-find, as a fraction of the box width. Between consecutive solves of a
// warm chain (and between consecutive outer sweeps of one solve) the root
// moves a small fraction of the box, so a narrow first bracket usually
// captures it in two marginal evaluations and hands Brent a 2·(q/64)-wide
// interval instead of the full [0, q].
const brSeedFrac = 1.0 / 64

// bestResponseWS is BestResponse on the workspace iterate: the
// root-of-marginal-utility fast path with corner handling, falling back to
// the derivative-free search when the marginal fails to bracket. Under the
// seeded policy (ws.seedBR) the bracket is first grown outward from the
// freshest iterate value ws.s[i]; any seeded failure degrades to this cold
// path, which otherwise ignores ws.s[i] (the closures swap the evaluation
// point in and restore it).
//
//neutralnet:hotpath
func (g *Game) bestResponseWS(ws *Workspace, i int) (float64, error) {
	if g.Q == 0 {
		return 0, nil
	}
	if ws.seedBR {
		if br, ok := g.bestResponseSeededWS(ws, i); ok {
			return br, nil
		}
	}
	ws.i = i
	ws.prime()
	u0 := ws.marginalFn(0)
	if math.IsNaN(u0) {
		return g.bestResponseSearchWS(ws, i)
	}
	if u0 <= 0 {
		return 0, nil
	}
	uq := ws.marginalFn(g.Q)
	if math.IsNaN(uq) {
		return g.bestResponseSearchWS(ws, i)
	}
	if uq >= 0 {
		return g.Q, nil
	}
	root, err := numeric.BrentWith(ws.marginalFn, 0, g.Q, u0, uq, 1e-11)
	if err != nil {
		return g.bestResponseSearchWS(ws, i)
	}
	return numeric.Clamp(root, 0, g.Q), nil
}

// bestResponseSeededWS is the seeded variant of the best-response
// root-find: it grows a bracket for the (decreasing, under the Theorem 4
// concavity the fast path already assumes) marginal utility outward from
// the freshest iterate value instead of probing the box endpoints. Corner
// seeds test their corner condition first — one marginal evaluation settles
// the Theorem 3 zero-subsidy and capped CPs, whose iterates sit exactly on
// the corner in warm chains. It reports ok = false (caller falls back to
// the cold path) on any NaN marginal or bracketing failure; on success the
// root agrees with the cold path's to the shared Brent tolerance 1e-11
// without being bit-identical, which is why the seeded policy rides the
// warm utilization kernels and their golden re-baseline.
//
//neutralnet:hotpath
func (g *Game) bestResponseSeededWS(ws *Workspace, i int) (float64, bool) {
	ws.i = i
	ws.prime()
	seed := numeric.Clamp(ws.s[i], 0, g.Q)
	step := g.Q * brSeedFrac
	if seed <= step {
		u0 := ws.marginalFn(0)
		if math.IsNaN(u0) {
			return 0, false
		}
		if u0 <= 0 {
			return 0, true
		}
		return g.seededWalkUp(ws, 0, u0, step)
	}
	if seed >= g.Q-step {
		uq := ws.marginalFn(g.Q)
		if math.IsNaN(uq) {
			return 0, false
		}
		if uq >= 0 {
			return g.Q, true
		}
		return g.seededWalkDown(ws, g.Q, uq, step)
	}
	a := seed - step
	fa := ws.marginalFn(a)
	if math.IsNaN(fa) {
		return 0, false
	}
	if fa <= 0 {
		return g.seededWalkDown(ws, a, fa, step)
	}
	return g.seededWalkUp(ws, a, fa, step)
}

// seededWalkUp holds a lower point a with marginal fa > 0 and walks the
// upper endpoint right with doubling steps until the marginal crosses zero
// or the cap corner proves binding.
//
//neutralnet:hotpath
func (g *Game) seededWalkUp(ws *Workspace, a, fa, step float64) (float64, bool) {
	for k := 0; k < 64; k++ {
		b := a + step
		if b >= g.Q {
			uq := ws.marginalFn(g.Q)
			if math.IsNaN(uq) {
				return 0, false
			}
			if uq >= 0 {
				return g.Q, true
			}
			return g.seededBrent(ws, a, g.Q, fa, uq)
		}
		fb := ws.marginalFn(b)
		if math.IsNaN(fb) {
			return 0, false
		}
		if fb <= 0 {
			return g.seededBrent(ws, a, b, fa, fb)
		}
		a, fa = b, fb
		step *= 2
	}
	return 0, false
}

// seededWalkDown holds an upper point b with marginal fb < 0 and walks the
// lower endpoint left with doubling steps until the marginal crosses zero
// or the zero corner proves binding.
//
//neutralnet:hotpath
func (g *Game) seededWalkDown(ws *Workspace, b, fb, step float64) (float64, bool) {
	for k := 0; k < 64; k++ {
		a := b - step
		if a <= 0 {
			u0 := ws.marginalFn(0)
			if math.IsNaN(u0) {
				return 0, false
			}
			if u0 <= 0 {
				return 0, true
			}
			return g.seededBrent(ws, 0, b, u0, fb)
		}
		fa := ws.marginalFn(a)
		if math.IsNaN(fa) {
			return 0, false
		}
		if fa >= 0 {
			return g.seededBrent(ws, a, b, fa, fb)
		}
		b, fb = a, fa
		step *= 2
	}
	return 0, false
}

// seededBrent finishes a seeded bracket with the same Brent kernel and
// tolerance as the cold path, clamped into the box.
//
//neutralnet:hotpath
func (g *Game) seededBrent(ws *Workspace, a, b, fa, fb float64) (float64, bool) {
	root, err := numeric.BrentWith(ws.marginalFn, a, b, fa, fb, 1e-11)
	if err != nil {
		return 0, false
	}
	return numeric.Clamp(root, 0, g.Q), true
}

// bestResponseSearchWS is BestResponseSearch on the workspace iterate:
// grid scan plus Brent parabolic refinement of the raw utility, with no
// concavity assumption.
//
//neutralnet:hotpath
func (g *Game) bestResponseSearchWS(ws *Workspace, i int) (float64, error) {
	if g.Q == 0 {
		return 0, nil
	}
	ws.i = i
	ws.prime()
	ws.utilityErr = nil
	x, _ := numeric.MaximizeOnInterval(ws.utilityFn, 0, g.Q, 33)
	if ws.utilityErr != nil {
		return 0, ws.utilityErr
	}
	return x, nil
}

// SetUtilSolver selects the utilization root kernel of the workspace's
// physical layer (see model.UtilSolverNames). The empty name restores the
// bit-identical cold Brent default; unknown names error. SolveNashWS applies
// Options.UtilSolver through this on every solve.
func (ws *Workspace) SetUtilSolver(name string) error { return ws.phys.SetUtilSolver(name) }

// StateWS solves the physical state induced by the subsidy profile s on the
// caller-owned workspace: the allocation-free counterpart of Game.State,
// bit-identical to it under the default utilization kernel. The returned
// state borrows the workspace's buffers and must be escaped with Clone to be
// retained; s is copied, never retained.
//
//neutralnet:hotpath
func (g *Game) StateWS(ws *Workspace, s []float64) (model.State, error) {
	if len(s) != g.N() {
		return model.State{}, dimensionError(len(s), g.N())
	}
	ws.bind(g)
	copy(ws.s, s)
	return g.stateWS(ws)
}

// CopyProfile is the canonical escape for a workspace-borrowed subsidy
// profile that a worker retains as a warm start across solves (sweep
// chains, montecarlo ladders, epoch trajectories). It delegates to
// numeric.CopyProfile, the single definition shared with packages that do
// not import game.
//
//neutralnet:hotpath
func CopyProfile(buf *[]float64, s []float64) []float64 {
	return numeric.CopyProfile(buf, s)
}

// --- solver.Problem ---------------------------------------------------------

// N is the number of players.
func (ws *Workspace) N() int { return ws.g.N() }

// Box is the subsidy interval [0, q] every component is confined to.
func (ws *Workspace) Box() (lo, hi float64) { return 0, ws.g.Q }

// Best computes player i's best response against the profile x. The
// solver layer iterates on the workspace's own s buffer, so x normally
// aliases it; a defensive copy covers solvers that present a different
// iterate.
//
//neutralnet:hotpath
func (ws *Workspace) Best(i int, x []float64) (float64, error) {
	if &x[0] != &ws.s[0] {
		copy(ws.s, x)
	}
	return ws.g.bestResponseWS(ws, i)
}
