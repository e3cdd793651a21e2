package main

import (
	"fmt"
	"math"

	"neutralnet"
)

// kktTol is the KKT residual an equilibrium must meet; the solver suites
// hold SolveNash to the same 1e-6.
const kktTol = 1e-6

// checkSurface checks one Engine.Sweep result: it has every grid point,
// every point converged, and the equilibria at the revenue argmax and at
// the sampled ranks satisfy the KKT system.
func checkSurface(eng *neutralnet.Engine, res *neutralnet.SweepResult, want int, samples []int) error {
	if len(res.Points) != want {
		return fmt.Errorf("surface: %d points, want %d", len(res.Points), want)
	}
	for i := range res.Points {
		if !res.Points[i].Eq.Converged {
			pt := res.Points[i]
			return fmt.Errorf("surface: not converged at p=%g q=%g mu=%g", pt.P, pt.Q, pt.Mu)
		}
	}
	check := []neutralnet.SweepPoint{res.ArgmaxRevenue()}
	for _, r := range samples {
		check = append(check, res.Points[r])
	}
	for _, pt := range check {
		if err := checkKKT(eng, pt.P, pt.Q, pt.Mu, pt.Eq); err != nil {
			return fmt.Errorf("surface: %w", err)
		}
	}
	return nil
}

func checkKKT(eng *neutralnet.Engine, p, q, mu float64, eq neutralnet.Equilibrium) error {
	rep, err := eng.VerifyKKTAtCap(p, q, mu, eq)
	if err != nil {
		return fmt.Errorf("KKT at p=%g q=%g mu=%g: %w", p, q, mu, err)
	}
	if !rep.Valid(kktTol) {
		return fmt.Errorf("KKT violated by %g at p=%g q=%g mu=%g", rep.MaxViolation, p, q, mu)
	}
	return nil
}

// checkOligopoly checks one streamed price sweep: the summary and the
// emitted segments both cover the whole hypercube, and the argmax outcomes
// are finite.
func checkOligopoly(sum *neutralnet.OligopolySweepSummary, want, emitted int) error {
	if sum.Points != want || emitted != want {
		return fmt.Errorf("oligopoly: %d points folded, %d emitted, want %d", sum.Points, emitted, want)
	}
	if sum.TotalRevenue.BestRank < 0 || sum.Welfare.BestRank < 0 {
		return fmt.Errorf("oligopoly: no finite argmax")
	}
	for _, o := range []neutralnet.OligopolyOutcome{sum.BestRevenue, sum.BestWelfare} {
		if !finite(o.Welfare) || !finite(o.P...) || !finite(o.Shares...) || !finite(o.S...) ||
			!finite(o.Phi...) || !finite(o.Revenue...) {
			return fmt.Errorf("oligopoly: non-finite argmax outcome at p=%v", o.P)
		}
	}
	return nil
}

// checkDuopoly checks an adaptive price sweep against the dense sweep of
// the same plane: the refinement must land on the dense argmax.
func checkDuopoly(res *neutralnet.DuopolyAdaptiveResult, refRank int) error {
	if res.BestRank != refRank {
		return fmt.Errorf("duopoly: adaptive argmax rank %d, dense argmax rank %d", res.BestRank, refRank)
	}
	return nil
}

// denseArgmaxRank returns the row-major rank of the dense sweep's combined
// revenue argmax, under ArgmaxTotalRevenue's rule: the lowest index among
// finite maxima.
func denseArgmaxRank(r *neutralnet.DuopolySweepResult) int {
	best, bestV := -1, math.Inf(-1)
	for i, row := range r.Outcomes {
		for j, o := range row {
			if v := o.Revenue[0] + o.Revenue[1]; finite(v) && v > bestV {
				best, bestV = i*len(r.P2)+j, v
			}
		}
	}
	return best
}

// sameEquilibrium reports whether two equilibria are bitwise equal: a cache
// hit must return exactly the answer first computed for its key.
func sameEquilibrium(a, b neutralnet.Equilibrium) bool {
	return a.Iterations == b.Iterations && a.Converged == b.Converged &&
		sameBits(a.S, b.S) && sameBits(a.U, b.U) &&
		math.Float64bits(a.State.Phi) == math.Float64bits(b.State.Phi) &&
		sameBits(a.State.M, b.State.M) && sameBits(a.State.Theta, b.State.Theta)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
