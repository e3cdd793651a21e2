package oligopoly

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"neutralnet/internal/model"
	"neutralnet/internal/numeric"
)

// goldenRefBest is the reference best-response search: the same 17-point
// grid scan, with the best cell refined by golden-section search to OptTol
// instead of Brent's method.
func goldenRefBest(f func(float64) float64, a, b float64) float64 {
	h := (b - a) / float64(cpGridPts-1)
	bestI, bestF := 0, math.Inf(-1)
	for i := 0; i < cpGridPts; i++ {
		xi := a + float64(i)*h
		if i == cpGridPts-1 {
			xi = b
		}
		if v := f(xi); v > bestF {
			bestI, bestF = i, v
		}
	}
	lo := a + float64(max(bestI-1, 0))*h
	hi := math.Min(a+float64(min(bestI+1, cpGridPts-1))*h, b)
	x, negF := numeric.MinimizeGolden(func(x float64) float64 { return -f(x) }, lo, hi, numeric.OptTol)
	if bestF > -negF {
		return a + float64(bestI)*h
	}
	return x
}

// bindForBest binds ws to m at prices p with the market's utilization
// kernel and fresh seeds, as CPEquilibriumWS does before the fixed point.
func bindForBest(t *testing.T, ws *Workspace, m *Market, p, s []float64) {
	t.Helper()
	ws.bind(m, p)
	for k := range ws.net {
		if err := ws.net[k].SetUtilSolver(m.utilKernel()); err != nil {
			t.Fatal(err)
		}
		ws.net[k].ResetUtilSeed()
	}
	copy(ws.s, s)
}

// TestBestEnvelopeVsGolden bounds the drift of the Brent refinement against
// the golden-section reference over seeded random prices and profiles at
// N = 1, 2, 3. Under the cold utilization kernel, where a utility
// evaluation is a deterministic function of the subsidy, the best response
// moves by at most 1e-7 and loses at most 1e-12 of the reference's utility,
// relative. Under the default warm kernel each evaluation is seeded by the
// one before it, so the utility carries ~1e-13 of history-dependent noise
// that flattens the top of the maximum to a few 1e-7 in x for any search,
// the reference included; there only the utility loss is bounded.
func TestBestEnvelopeVsGolden(t *testing.T) {
	for _, kernel := range []string{model.UtilBrent, ""} {
		rng := rand.New(rand.NewSource(31))
		ws := NewWorkspace()
		for trial := 0; trial < 200; trial++ {
			n := 1 + trial%3
			m := smallMarketN(n)
			m.UtilSolver = kernel
			p := make([]float64, n)
			for k := range p {
				p[k] = 0.2 + 1.6*rng.Float64()
			}
			s := []float64{rng.Float64() * m.Q, rng.Float64() * m.Q}
			i := rng.Intn(len(s))
			bindForBest(t, ws, m, p, s)
			got, err := ws.Best(i, ws.s)
			if err != nil {
				t.Fatal(err)
			}
			ws.prime()
			ref := goldenRefBest(ws.utilityFn, 0, m.Q)
			uGot, uRef := ws.utilityFn(got), ws.utilityFn(ref)
			if ws.utilityErr != nil {
				t.Fatal(ws.utilityErr)
			}
			at := func() string {
				return fmt.Sprintf("kernel %q trial %d (N=%d, p=%v, s=%v, CP %d)", m.utilKernel(), trial, n, p, s, i)
			}
			if d := math.Abs(got - ref); kernel == model.UtilBrent && d > 1e-7 {
				t.Fatalf("%s: best %v, golden reference %v (|Δx| %g)", at(), got, ref, d)
			}
			if loss := (uRef - uGot) / math.Abs(uRef); loss > 1e-12 {
				t.Fatalf("%s: utility %v below the reference's %v (relative %g)", at(), uGot, uRef, loss)
			}
		}
	}
}

// TestCPEquilibriumEpsNash checks the solved CP equilibrium at N = 1, 2, 3
// against unilateral deviation: no CP gains more than 1e-10·|U_i| by moving
// to any of 2001 evenly spaced subsidies in [0, q], every utility computed
// by the one-shot cold Solve.
func TestCPEquilibriumEpsNash(t *testing.T) {
	for n := 1; n <= 3; n++ {
		m := smallMarketN(n)
		for _, base := range []float64{0.4, 0.9} {
			p := make([]float64, n)
			for k := range p {
				p[k] = base + 0.1*float64(k)
			}
			s, _, err := m.CPEquilibrium(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Solve(p, s)
			if err != nil {
				t.Fatal(err)
			}
			dev := append([]float64(nil), s...)
			for i := range s {
				u := m.Utility(i, s, st)
				for j := 0; j <= 2000; j++ {
					dev[i] = m.Q * float64(j) / 2000
					dst, err := m.Solve(p, dev)
					if err != nil {
						t.Fatal(err)
					}
					if gain := m.Utility(i, dev, dst) - u; gain > 1e-10*math.Abs(u) {
						t.Fatalf("N=%d p=%v: CP %d gains %g (%g of U) deviating from %v to %v", n, p, i, gain, gain/math.Abs(u), s[i], dev[i])
					}
				}
				dev[i] = s[i]
			}
		}
	}
}

// TestBestUtilityEvalCount pins the best-response layer's work count: on
// smallMarketN(3) at fixed prices and profile, one Best runs exactly the
// pinned number of summed-utility evaluations per CP — 17 grid points plus
// the Brent refinement: 26 for CP 0's interior maximum and 39 for CP 1's
// corner at s = 0, where the golden-section refinement made it 64 and 63 —
// and the counts repeat on a fresh workspace.
func TestBestUtilityEvalCount(t *testing.T) {
	m := smallMarketN(3)
	p := []float64{0.9, 1.0, 1.1}
	s := []float64{0.3, 0.1}
	want := []int{26, 39} // interior maximum; corner at s = 0
	for rep := 0; rep < 2; rep++ {
		ws := NewWorkspace()
		bindForBest(t, ws, m, p, s)
		for i := range s {
			before := ws.UtilityEvals()
			x, err := ws.Best(i, ws.s)
			if err != nil {
				t.Fatal(err)
			}
			if got := ws.UtilityEvals() - before; got != want[i] {
				t.Errorf("rep %d CP %d: Best (= %v) ran %d utility evaluations, want %d", rep, i, x, got, want[i])
			}
		}
	}
}
