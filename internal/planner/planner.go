// Package planner computes the social planner's benchmark for the
// subsidization game: the subsidy profile a welfare-maximizing regulator
// would choose directly, subject to the same policy box [0, q]^n the CPs
// face. Comparing the planner's welfare with the Nash equilibrium's
// quantifies the efficiency of the paper's *decentralized* subsidization
// competition — an extension the paper motivates (it argues competition
// raises welfare) but does not compute.
//
// The coordinate ascent is expressed as a solver.Problem — Best(i, ·) is the
// coordinate-wise argmax of the objective — and dispatched through the
// shared fixed-point registry, so the planner inherits every registered
// scheme and evaluates the objective on a reusable game workspace
// (allocation-free once warm).
package planner

import (
	"errors"
	"fmt"
	"math"

	"neutralnet/internal/game"
	"neutralnet/internal/model"
	"neutralnet/internal/numeric"
	solverpkg "neutralnet/internal/solver"
)

// Objective selects what the planner maximizes.
type Objective int

const (
	// Welfare maximizes W(s) = Σ v_i θ_i(s) (the paper's welfare metric).
	Welfare Objective = iota
	// Throughput maximizes aggregate throughput Σ θ_i(s), a
	// capacity-utilization-oriented regulator.
	Throughput
)

// Result is the planner's optimum.
type Result struct {
	S          []float64
	State      model.State
	Value      float64 // achieved objective value
	Iterations int
	Converged  bool
}

// ascent is the planner's coordinate-ascent problem over a game workspace:
// a solver.Problem whose Best(i, ·) maximizes the objective along
// coordinate i with the historical 25-point grid, refined by Brent. The
// fixed points of this map are exactly the coordinate-wise optima the
// historical cyclic ascent converged to.
type ascent struct {
	g   *game.Game
	ws  *game.Workspace
	obj Objective
	s   []float64 // iterate (owned; candidates are swapped in place)

	i       int
	fn      func(float64) float64
	evalErr error
}

func newAscent(g *game.Game, obj Objective) *ascent {
	a := &ascent{g: g, ws: game.NewWorkspace(), obj: obj, s: make([]float64, g.N())}
	a.fn = func(x float64) float64 {
		old := a.s[a.i]
		a.s[a.i] = x
		v, err := a.value(a.s)
		a.s[a.i] = old
		if err != nil {
			a.evalErr = err
			return math.Inf(-1)
		}
		return v
	}
	return a
}

// value evaluates the objective at profile s on the workspace. The state is
// bit-identical to the historical g.State evaluation.
func (a *ascent) value(s []float64) (float64, error) {
	st, err := a.g.StateWS(a.ws, s)
	if err != nil {
		return 0, err
	}
	switch a.obj {
	case Throughput:
		return st.TotalThroughput(), nil
	default:
		return a.g.Welfare(st), nil
	}
}

// N is the number of coordinates.
func (a *ascent) N() int { return len(a.s) }

// Box is the policy box [0, q].
func (a *ascent) Box() (lo, hi float64) { return 0, a.g.Q }

// Best maximizes the objective along coordinate i at the profile x.
func (a *ascent) Best(i int, x []float64) (float64, error) {
	if &x[0] != &a.s[0] {
		copy(a.s, x)
	}
	a.i = i
	a.evalErr = nil
	best, _ := numeric.MaximizeOnInterval(a.fn, 0, a.g.Q, 25)
	if a.evalErr != nil {
		return 0, a.evalErr
	}
	return best, nil
}

// Maximize runs coordinate ascent on the objective over s ∈ [0, q]^n,
// dispatched through the default Gauss–Seidel scheme (cyclic coordinate
// ascent, reproducing the historical loop bit for bit). Each coordinate step
// is a guarded grid+Brent maximization (the objective is smooth but not
// concave, so the scan matters). tol is the sup-norm movement tolerance
// (0 → 1e-7); maxSweeps bounds the outer loop (0 → 60).
func Maximize(sys *model.System, p, q float64, obj Objective, tol float64, maxSweeps int) (Result, error) {
	return MaximizeWith(sys, p, q, obj, tol, maxSweeps, "")
}

// MaximizeWith is Maximize with the fixed-point scheme selected by solver
// registry name (empty → Gauss–Seidel). Simultaneous schemes (jacobi-damped,
// anderson) reach the same coordinate-wise optima on the paper's smooth
// objectives; Gauss–Seidel remains the reference path.
func MaximizeWith(sys *model.System, p, q float64, obj Objective, tol float64, maxSweeps int, solverName string) (Result, error) {
	if err := sys.Validate(); err != nil {
		return Result{}, err
	}
	if p < 0 || q < 0 {
		return Result{}, fmt.Errorf("planner: negative price %g or cap %g", p, q)
	}
	if tol <= 0 {
		tol = 1e-7
	}
	if maxSweeps <= 0 {
		maxSweeps = 60
	}
	g, err := game.New(sys, p, q)
	if err != nil {
		return Result{}, err
	}
	a := newAscent(g, obj)
	if q == 0 {
		st, err := a.g.StateWS(a.ws, a.s)
		if err != nil {
			return Result{}, err
		}
		owned := st.Clone() // escape before the value evaluation reuses the buffers
		v, err := a.value(a.s)
		if err != nil {
			return Result{}, err
		}
		return Result{S: a.s, State: owned, Value: v, Converged: true}, nil
	}
	fp, err := solverpkg.New(solverName)
	if err != nil {
		return Result{}, err
	}
	res := Result{}
	sres, err := fp.Solve(a, a.s, tol, maxSweeps)
	if err != nil {
		var ce *solverpkg.ComponentError
		if errors.As(err, &ce) {
			return Result{}, ce.Err
		}
		return Result{}, err
	}
	res.Iterations = sres.Iterations
	res.Converged = sres.Converged
	st, err := a.g.StateWS(a.ws, a.s)
	if err != nil {
		return Result{}, err
	}
	res.State = st.Clone() // escape before the value evaluation reuses the buffers
	v, err := a.value(a.s)
	if err != nil {
		return Result{}, err
	}
	res.S = a.s
	res.Value = v
	if !res.Converged {
		return res, errors.New("planner: coordinate ascent did not converge")
	}
	return res, nil
}

// Efficiency compares the Nash equilibrium against the planner's optimum at
// the same (p, q): the welfare ratio W_nash/W_planner ∈ (0, 1] (1 means the
// competition is socially efficient; the reciprocal is the price of
// anarchy).
type Efficiency struct {
	Nash    game.Equilibrium
	Planner Result
	WNash   float64
	WOpt    float64
	Ratio   float64 // WNash / WOpt
}

// CompareAt computes the efficiency of the subsidization competition at
// (p, q).
func CompareAt(sys *model.System, p, q float64) (Efficiency, error) {
	return CompareAtWith(sys, p, q, game.Options{})
}

// CompareAtWith is CompareAt with a caller-supplied configuration for the
// Nash side of the comparison. The planner's coordinate ascent dispatches
// through the same registry scheme as the Nash solve, so a WithSolver
// selection reaches both sides.
func CompareAtWith(sys *model.System, p, q float64, solver game.Options) (Efficiency, error) {
	g, err := game.New(sys, p, q)
	if err != nil {
		return Efficiency{}, err
	}
	eq, err := g.SolveNashWS(game.NewWorkspace(), solver)
	if err != nil {
		return Efficiency{}, err
	}
	eqOwned := eq.Clone() // the Efficiency result retains it
	opt, err := MaximizeWith(sys, p, q, Welfare, 0, 0, string(solver.Method))
	if err != nil {
		return Efficiency{}, err
	}
	wn := g.Welfare(eqOwned.State)
	wo := opt.Value
	ratio := 1.0
	if wo > 0 {
		ratio = wn / wo
	}
	return Efficiency{Nash: eqOwned, Planner: opt, WNash: wn, WOpt: wo, Ratio: ratio}, nil
}
