package game

import (
	"neutralnet/internal/econ"
	"neutralnet/internal/model"
	"neutralnet/internal/numeric"
)

// This file implements the first-order machinery of Theorem 3: the analytic
// marginal utility u_i(s) = ∂U_i/∂s_i, the elasticity threshold τ_i(s), and
// their numerical cross-check counterparts.

// MarginalUtility returns u_i(s) = ∂U_i/∂s_i in closed form, evaluated at
// the solved state:
//
//	u_i = −θ_i + (v_i − s_i)·∂θ_i/∂s_i,
//	∂θ_i/∂s_i = (∂m_i/∂s_i)·λ_i + m_i·λ_i'(φ)·(∂φ/∂s_i),
//	∂m_i/∂s_i = −m_i'(t_i)  (positive),
//	∂φ/∂s_i   = (∂φ/∂m_i)·(∂m_i/∂s_i).
func (g *Game) MarginalUtility(i int, s []float64) (float64, error) {
	st, err := g.State(s)
	if err != nil {
		return 0, err
	}
	return g.marginalAt(i, s, st), nil
}

// MarginalUtilities returns the full vector u(s) with a single fixed-point
// solve.
func (g *Game) MarginalUtilities(s []float64) ([]float64, error) {
	st, err := g.State(s)
	if err != nil {
		return nil, err
	}
	u := make([]float64, g.N())
	for i := range u {
		u[i] = g.marginalAt(i, s, st)
	}
	return u, nil
}

// marginalAt computes u_i at an already-solved state.
func (g *Game) marginalAt(i int, s []float64, st model.State) float64 {
	cp := g.Sys.CPs[i]
	ti := g.P - s[i]
	dmds := -cp.Demand.DM(ti) // ∂m_i/∂s_i ≥ 0
	lam := cp.Throughput.Lambda(st.Phi)
	dphids := g.Sys.DPhiDM(i, st.Phi, st.M) * dmds
	dthds := dmds*lam + st.M[i]*cp.Throughput.DLambda(st.Phi)*dphids
	return -st.Theta[i] + (cp.Value-s[i])*dthds
}

// marginalWS is marginalAt for player ws.i at the workspace iterate, with
// λ_i, ∂φ/∂m_i and dλ_i/dφ read from the physical workspace's class
// exponentials, which the state solve has just left at st.Phi. The float
// operations are marginalAt's, in the same order, so the value is
// bit-identical; st must be the state the workspace solved last.
//
//neutralnet:hotpath
func (g *Game) marginalWS(ws *Workspace, st model.State) float64 {
	i := ws.i
	cp := g.Sys.CPs[i]
	ti := g.P - ws.s[i]
	dmds := -cp.Demand.DM(ti) // ∂m_i/∂s_i ≥ 0
	lam := ws.phys.Lambda(i, st.Phi)
	dphids := ws.phys.DPhiDM(i, st.Phi) * dmds
	dthds := dmds*lam + st.M[i]*ws.phys.DLambda(i, st.Phi)*dphids
	return -st.Theta[i] + (cp.Value-ws.s[i])*dthds
}

// DThetaDS returns ∂θ_i/∂s_j at profile s: for j = i the own effect (always
// ≥ 0 by Lemma 3), for j ≠ i the externality m_i·λ_i'(φ)·∂φ/∂s_j ≤ 0.
func (g *Game) DThetaDS(i, j int, s []float64) (float64, error) {
	st, err := g.State(s)
	if err != nil {
		return 0, err
	}
	cp := g.Sys.CPs[i]
	dmds := -g.Sys.CPs[j].Demand.DM(g.P - s[j])
	dphids := g.Sys.DPhiDM(j, st.Phi, st.M) * dmds
	d := st.M[i] * cp.Throughput.DLambda(st.Phi) * dphids
	if i == j {
		d += dmds * cp.Throughput.Lambda(st.Phi)
	}
	return d, nil
}

// MarginalUtilityNumeric estimates u_i by differentiating the utility
// directly (central differences in the interior, one-sided at the domain
// boundary). It exists to cross-check the closed form and as the ablation
// path for BenchmarkAblationDerivative.
func (g *Game) MarginalUtilityNumeric(i int, s []float64) float64 {
	f := func(x float64) float64 {
		u, err := g.Utility(i, withSubsidy(s, i, x))
		if err != nil {
			return 0
		}
		return u
	}
	const h = 1e-6
	if s[i] < h {
		return numeric.DerivativeOneSided(f, s[i], h)
	}
	return numeric.Derivative(f, s[i], h)
}

// Tau evaluates the Theorem 3 threshold
//
//	τ_i(s) = (v_i − s_i)·ε^mi_si·(1 + ε^λi_φ·ε^φ_mi),
//
// at the solved state. In a Nash equilibrium s_i = min{τ_i(s), q} for every
// CP whose subsidy is interior or capped, and τ_i(s) = 0 exactly when
// s_i = 0.
func (g *Game) Tau(i int, s []float64) (float64, error) {
	st, err := g.State(s)
	if err != nil {
		return 0, err
	}
	cp := g.Sys.CPs[i]
	ti := g.P - s[i]
	mi := st.M[i]
	// ε^mi_si = (∂m_i/∂s_i)·(s_i/m_i) = −m'(t_i)·s_i/m_i.
	eMS := econ.Elasticity(-cp.Demand.DM(ti), s[i], mi)
	eLP := g.Sys.PhiElasticityOfLambda(i, st.Phi)
	ePM := g.Sys.MElasticityOfPhi(i, st.Phi, st.M)
	return (cp.Value - s[i]) * eMS * (1 + eLP*ePM), nil
}
