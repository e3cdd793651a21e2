package model

import (
	"fmt"
	"math"

	"neutralnet/internal/econ"
	"neutralnet/internal/numeric"
)

// This file is the allocation-free evaluation core of the model layer. A
// Workspace owns the slice buffers and the pre-bound root-finding closure
// that a single utilization solve needs, so the hot path of the equilibrium
// stack (Nash outer iteration × per-CP root-find × utilization fixed point)
// performs zero heap allocations after warm-up. The allocating System
// methods (Solve, SolveUtilization, PopulationsAt, ThroughputAt) remain as
// thin adapters over these kernels.
//
// The workspace kernels also exploit Lemma 2: utilization depends on the CPs
// only through their φ-elasticity classes. Bind groups the CPs whose
// throughput is econ.ExpThroughput by exact β, and the workspace evaluates
// one e^{−βφ} per class per distinct φ, caching the values for the two most
// recent φ. The gap and its derivative, the throughput fill of SolveInto
// and the marginal kernels one layer up (Lambda, DLambda, DPhiDM) all read
// λ_k = Peak_k·e_c and dλ_k = −β_c·Peak_k·e_c from that cache — the same
// float operations, in the same order, as ExpThroughput.Lambda/DLambda, so
// every result is bit-identical to the System reference definitions (Gap,
// GapDerivative, DPhiDM, ThroughputInto); only the number of math.Exp calls
// drops, from one per CP to one per class. Any other throughput family
// keeps its per-CP interface call.

// Utilization root-solver names accepted by Workspace.SetUtilSolver and, one
// layer up, by the engine's WithUtilizationSolver option.
const (
	// UtilBrent is the cold path: bracket [0, hi] from scratch and run
	// Brent. The default, bit-identical to the historical SolveUtilization.
	UtilBrent = "brent"
	// UtilBrentWarm seeds the bracket from the previous solve's φ and grows
	// it outward until the sign changes — a few gap evaluations instead of a
	// full cold bracket when consecutive solves are nearby (Nash inner
	// loops, sweep chains, epoch trajectories). NOT bit-identical to the
	// cold path (same root to 1e-12, different evaluation sequence).
	UtilBrentWarm = "warm-brent"
	// UtilNewton runs safeguarded Newton on the analytic GapDerivative from
	// the previous φ, with bracket bisection as the safeguard. NOT
	// bit-identical to the cold path.
	UtilNewton = "newton"
)

// UtilSolverNames lists the accepted utilization solver names.
func UtilSolverNames() []string { return []string{UtilBrent, UtilBrentWarm, UtilNewton} }

// Workspace holds the reusable buffers of one solving goroutine. It is NOT
// safe for concurrent use: each worker owns exactly one Workspace. States
// returned by SolveInto borrow the workspace buffers — they are valid only
// until the next SolveInto call and must be escaped with State.Clone before
// being retained.
type Workspace struct {
	sys   *System
	m     []float64 // populations buffer (borrowed by State.M)
	theta []float64 // throughput buffer (borrowed by State.Theta)

	// rows is the Lemma-2 class table Bind builds for sys (see classRow);
	// classes is the number of distinct β classes in it. The class
	// exponentials are cached in two banks for the two most recent distinct
	// φ: ePhi[b] is the φ of bank b (NaN: empty) and bank is the one last
	// used. Two, because Brent usually ends on a sub-tolerance probe and
	// returns the point before it; the Θ fill and the marginal at the solved
	// φ then still hit. unitAtZero records that every class β is finite, so
	// e^{−β·0} = 1 exactly and the gap at φ = 0 needs no exponential. exps
	// counts the class exponentials computed since construction.
	rows       []classRow
	classes    int
	ePhi       [2]float64
	bank       uint8
	unitAtZero bool
	exps       int

	// gapFn is the utilization gap g(φ) = Θ(φ, µ) − Σ_k m_k λ_k(φ) bound to
	// the workspace's current system and population buffer. Binding it once
	// at construction (instead of closing over locals per solve) is what
	// keeps the root-find allocation-free: the closure is allocated exactly
	// once per Workspace.
	gapFn func(float64) float64
	// dgapFn is the analytic derivative dg/dφ, likewise pre-bound; it backs
	// the UtilNewton solver.
	dgapFn func(float64) float64

	// utilSolver selects the root kernel of solveUtilizationWS; empty means
	// UtilBrent. prevPhi is the last solved utilization, the warm-start seed
	// of the UtilBrentWarm/UtilNewton kernels (NaN until the first solve).
	utilSolver string
	prevPhi    float64
}

// classRow is one row of the class table. Row k describes CP k — the index
// of its β class, or -1 when its throughput is not econ.ExpThroughput, and
// its Peak — and, for k below the class count, also class k: its β and the
// exponentials e^{−β·ePhi[b]} of both cache banks. Sharing rows keeps the
// whole table one allocation of n rows.
type classRow struct {
	class int
	peak  float64
	beta  float64
	e     [2]float64
}

// NewWorkspace returns an empty workspace; buffers are sized on first use.
func NewWorkspace() *Workspace {
	w := &Workspace{prevPhi: math.NaN(), ePhi: [2]float64{math.NaN(), math.NaN()}}
	w.gapFn = w.gap
	w.dgapFn = w.gapDerivative
	return w
}

// SetUtilSolver selects the utilization root kernel used by SolveInto. The
// empty name restores the default cold Brent (bit-identical to the one-shot
// SolveUtilization); UtilBrentWarm and UtilNewton warm-start from the
// previous solve's φ and are not bit-identical. Unknown names error.
func (w *Workspace) SetUtilSolver(name string) error {
	switch name {
	case "", UtilBrent, UtilBrentWarm, UtilNewton:
		w.utilSolver = name
		return nil
	}
	return fmt.Errorf("model: unknown utilization solver %q (have %v)", name, UtilSolverNames())
}

// UtilSolver reports the workspace's current utilization root kernel.
func (w *Workspace) UtilSolver() string {
	if w.utilSolver == "" {
		return UtilBrent
	}
	return w.utilSolver
}

// ResetUtilSeed forgets the previous solve's φ. Callers that reuse one
// workspace across logically independent solves (sweep workers, engine
// pools) reset at each solve boundary so a warm kernel's result depends
// only on the solve itself, never on which solve the workspace happened to
// run before — that is what keeps warm-kernel sweeps deterministic and
// bit-identical at any worker count. Within one solve the seed then chains
// across the many inner root finds, which is where the warm win lives.
func (w *Workspace) ResetUtilSeed() { w.prevPhi = math.NaN() }

// Bind points the workspace at sys, sizes its buffers for sys.N() CPs and
// rebuilds the class table from sys.CPs, dropping any cached exponentials.
// Rebinding between systems of the same size is free; growing reallocates
// once. The table is a snapshot: after changing a bound system's CPs in
// place, Bind it again.
func (w *Workspace) Bind(sys *System) {
	w.sys = sys
	n := len(sys.CPs)
	if cap(w.rows) < n {
		buf := make([]float64, 2*n)
		w.m = buf[:n:n]
		w.theta = buf[n:]
		w.rows = make([]classRow, n)
	}
	w.m = w.m[:n]
	w.theta = w.theta[:n]
	w.rows = w.rows[:n]
	w.classes = 0
	w.unitAtZero = true
	for k := range sys.CPs {
		row := &w.rows[k]
		row.class = -1
		et, ok := sys.CPs[k].Throughput.(econ.ExpThroughput)
		if !ok {
			continue
		}
		row.peak = et.Peak
		row.class = w.classOf(et.Beta)
		if math.IsInf(et.Beta, 0) || math.IsNaN(et.Beta) {
			w.unitAtZero = false
		}
	}
	w.ePhi = [2]float64{math.NaN(), math.NaN()}
}

// classOf returns the class index of β, registering a new class when no
// earlier CP has exactly this β (bit equality, so ±0 never merge).
func (w *Workspace) classOf(beta float64) int {
	for c := 0; c < w.classes; c++ {
		if math.Float64bits(w.rows[c].beta) == math.Float64bits(beta) {
			return c
		}
	}
	c := w.classes
	w.rows[c].beta = beta
	w.classes++
	return c
}

// ClassExps reports how many class exponentials e^{−βφ} the workspace has
// computed since construction: the work count of its λ kernels.
func (w *Workspace) ClassExps() int { return w.exps }

// classExp makes the current bank hold e^{−β_c·φ} for every class,
// computing them only when φ is in neither bank (the older bank is
// overwritten).
//
//neutralnet:hotpath
func (w *Workspace) classExp(phi float64) {
	if phi == w.ePhi[w.bank] {
		return
	}
	w.bank ^= 1
	b := w.bank
	if phi == w.ePhi[b] {
		return
	}
	for c := 0; c < w.classes; c++ {
		w.rows[c].e[b] = math.Exp(-w.rows[c].beta * phi)
	}
	w.exps += w.classes
	w.ePhi[b] = phi
}

// lambda is λ_k(φ), assuming classExp(phi) has run: Peak_k·e_c for an
// exponential CP, the interface call otherwise.
//
//neutralnet:hotpath
func (w *Workspace) lambda(k int, phi float64) float64 {
	r := &w.rows[k]
	if r.class < 0 {
		return w.sys.CPs[k].Throughput.Lambda(phi)
	}
	return r.peak * w.rows[r.class].e[w.bank&1]
}

// dlambda is dλ_k/dφ, assuming classExp(phi) has run.
//
//neutralnet:hotpath
func (w *Workspace) dlambda(k int, phi float64) float64 {
	r := &w.rows[k]
	if r.class < 0 {
		return w.sys.CPs[k].Throughput.DLambda(phi)
	}
	c := &w.rows[r.class]
	return -c.beta * r.peak * c.e[w.bank&1]
}

// gap is System.Gap over the population buffer, reading the class cache.
// Every utilization solve evaluates g(0) first; when every class β is
// finite that evaluation is served by gapAtZero, exponential-free and
// leaving both cache banks untouched.
//
//neutralnet:hotpath
func (w *Workspace) gap(phi float64) float64 {
	if phi == 0 && w.unitAtZero {
		return w.gapAtZero(phi)
	}
	w.classExp(phi)
	demand := 0.0
	e := w.bank & 1
	for k, mk := range w.m {
		// w.lambda(k, phi), inlined by hand: this is the root solve's
		// inner loop, and the interface fallback keeps the compiler from
		// inlining the helper.
		var lam float64
		if r := &w.rows[k]; r.class >= 0 {
			lam = r.peak * w.rows[r.class].e[e]
		} else {
			lam = w.sys.CPs[k].Throughput.Lambda(phi)
		}
		demand += mk * lam
	}
	return w.sys.Util.Theta(phi, w.sys.Mu) - demand
}

// gapAtZero is gap at φ = ±0 for a class table whose β are all finite:
// e^{−β·0} = 1 exactly, so λ_k(0) = Peak_k·1 = Peak_k, bit for bit the
// value the cached exponential would give.
//
//neutralnet:hotpath
func (w *Workspace) gapAtZero(phi float64) float64 {
	demand := 0.0
	for k, mk := range w.m {
		var lam float64
		if r := &w.rows[k]; r.class >= 0 {
			lam = r.peak
		} else {
			lam = w.sys.CPs[k].Throughput.Lambda(phi)
		}
		demand += mk * lam
	}
	return w.sys.Util.Theta(phi, w.sys.Mu) - demand
}

// gapDerivative is System.GapDerivative over the population buffer,
// reading the class cache.
//
//neutralnet:hotpath
func (w *Workspace) gapDerivative(phi float64) float64 {
	w.classExp(phi)
	d := w.sys.Util.DThetaDPhi(phi, w.sys.Mu)
	for k, mk := range w.m {
		d -= mk * w.dlambda(k, phi)
	}
	return d
}

// Lambda returns λ_i(φ) of the bound system's CP i, bit-identical to
// CPs[i].Throughput.Lambda(phi).
//
//neutralnet:hotpath
func (w *Workspace) Lambda(i int, phi float64) float64 {
	w.classExp(phi)
	return w.lambda(i, phi)
}

// DLambda returns dλ_i/dφ of the bound system's CP i, bit-identical to
// CPs[i].Throughput.DLambda(phi).
//
//neutralnet:hotpath
func (w *Workspace) DLambda(i int, phi float64) float64 {
	w.classExp(phi)
	return w.dlambda(i, phi)
}

// DPhiDM returns ∂φ/∂m_i at phi for the populations in the workspace
// buffer, bit-identical to System.DPhiDM(i, phi, w.M()).
//
//neutralnet:hotpath
func (w *Workspace) DPhiDM(i int, phi float64) float64 {
	return w.Lambda(i, phi) / w.gapDerivative(phi)
}

// M exposes the population buffer so callers (PopulationsInto consumers)
// can fill it in place before SolveInto.
func (w *Workspace) M() []float64 { return w.m }

// PopulationsInto writes m_i(t_i) into dst for the per-CP effective prices
// t. dst must have length len(s.CPs). It is the in-place kernel behind
// PopulationsAt.
//
//neutralnet:hotpath
func (s *System) PopulationsInto(dst, t []float64) {
	for i := range s.CPs {
		dst[i] = s.CPs[i].Demand.M(t[i])
	}
}

// ThroughputInto writes θ_i = m_i·λ_i(φ) into dst at utilization phi. It is
// the in-place kernel behind ThroughputAt.
//
//neutralnet:hotpath
func (s *System) ThroughputInto(dst []float64, phi float64, m []float64) {
	for i := range s.CPs {
		dst[i] = m[i] * s.CPs[i].Throughput.Lambda(phi)
	}
}

// SolveInto computes the full physical state for the populations already
// resident in w.M() without allocating. The returned State borrows w's
// buffers (State.M aliases w.M(), State.Theta aliases the throughput
// buffer); callers that retain it across solves must Clone it. The math is
// identical to Solve: same checks, same bracketing, same Brent iteration.
// The throughput fill reads the class exponentials at the solved φ, which
// the root solve usually leaves cached.
//
//neutralnet:hotpath
func (s *System) SolveInto(w *Workspace) (State, error) {
	phi, err := s.solveUtilizationWS(w)
	if err != nil {
		return State{}, err
	}
	w.classExp(phi)
	for k, mk := range w.m {
		w.theta[k] = mk * w.lambda(k, phi)
	}
	return State{Phi: phi, M: w.m, Theta: w.theta}, nil
}

// solveUtilizationWS is SolveUtilization over the workspace's population
// buffer, using the pre-bound gap closure. Under the default UtilBrent
// kernel the operation order matches SolveUtilization exactly, so results
// are bit-identical; the warm kernels find the same root to tolerance via a
// different evaluation sequence.
//
//neutralnet:hotpath
func (s *System) solveUtilizationWS(w *Workspace) (float64, error) {
	if w.sys != s {
		w.Bind(s)
	}
	total := 0.0
	for _, mi := range w.m {
		if mi < 0 {
			return 0, fmt.Errorf("model: negative population %g", mi)
		}
		total += mi
	}
	if total == 0 {
		return 0, nil // no demand, no utilization (limit θ→0 of Assumption 1)
	}
	// g(0) = Θ(0,µ) − Σ m_k λ_k(0) < 0 when demand exists.
	g0 := w.gapFn(0)
	if g0 >= 0 {
		return 0, nil
	}
	var phi float64
	var err error
	switch w.utilSolver {
	case UtilBrentWarm:
		phi, err = numeric.SolveIncreasingSeeded(w.gapFn, 0, 1, g0, w.prevPhi)
	case UtilNewton:
		phi, err = numeric.NewtonIncreasing(w.gapFn, w.dgapFn, 0, w.prevPhi, g0, 0)
	default: // "", UtilBrent
		phi, err = numeric.SolveIncreasingWith(w.gapFn, 0, 1, g0)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNoSolution, err)
	}
	w.prevPhi = phi
	return phi, nil
}
