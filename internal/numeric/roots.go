// Package numeric provides the scalar numerical kernels the reproduction is
// built on: bracketing and root finding, bounded one-dimensional
// optimization, numerical differentiation and fixed-point iteration.
//
// The paper's model is a system of smooth scalar equations (a utilization
// fixed point, first-order conditions of a concave game, and sensitivity
// formulas); everything in this package exists so that those equations can be
// solved with stdlib-only Go. All routines are deterministic and
// allocation-light so they can sit in the inner loop of parameter sweeps.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// Default tolerances used throughout the repository. They are exported so
// callers that need to reason about solver accuracy (e.g. equilibrium
// classification in the game package) can stay consistent with the kernels.
const (
	// RootTol is the default absolute x-tolerance for root finders.
	RootTol = 1e-12
	// OptTol is the default x-tolerance for 1-D optimizers. MinimizeGolden
	// stops when its bracket is this wide; MaximizeOnInterval uses it as
	// the absolute floor under its relative √ε·|x| tolerance.
	OptTol = 1e-10
	// MaxIter bounds all iterative kernels.
	MaxIter = 200
)

// ErrNoBracket is returned when a root finder is given an interval whose
// endpoints do not straddle a sign change.
var ErrNoBracket = errors.New("numeric: endpoints do not bracket a root")

// ErrMaxIter is returned when an iterative method fails to converge within
// its iteration budget.
var ErrMaxIter = errors.New("numeric: maximum iterations exceeded")

// Bisect finds a root of f in [a, b] by bisection. It requires f(a) and f(b)
// to have opposite signs and converges unconditionally at one bit per step.
// It is used as the robust fallback for Brent.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	if tol <= 0 {
		tol = RootTol
	}
	for i := 0; i < 4*MaxIter; i++ {
		mid := a + (b-a)/2
		fm := f(mid)
		if fm == 0 || (b-a)/2 < tol {
			return mid, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = mid, fm
		} else {
			b = mid
		}
	}
	return a + (b-a)/2, nil
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with secant and bisection safeguards). f(a) and f(b) must
// straddle zero. tol is the absolute x-tolerance; pass 0 for the default.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	return BrentWith(f, a, b, f(a), f(b), tol)
}

// BrentWith is Brent with the endpoint values fa = f(a) and fb = f(b)
// already evaluated. Hot paths that have just tested the endpoints (corner
// handling, bracket expansion) use it to avoid re-evaluating an expensive f
// twice; results are identical to Brent's.
func BrentWith(f func(float64) float64, a, b, fa, fb, tol float64) (float64, error) {
	if tol <= 0 {
		tol = RootTol
	}
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, a, fa, b, fb)
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for i := 0; i < 4*MaxIter; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.Nextafter(math.Abs(b), math.Inf(1))*0x1p-52 + tol/2
		xm := (c - b) / 2
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			// Attempt inverse quadratic interpolation / secant.
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
	}
	return b, ErrMaxIter
}

// ExpandBracket grows an upper bound geometrically until f changes sign on
// [lo, hi]. It assumes f(lo) < 0 for an increasing f (or f(lo) > 0 for a
// decreasing one) and returns a bracketing hi. grow must be > 1; pass 0 for
// the default factor of 2.
func ExpandBracket(f func(float64) float64, lo, hi0, grow float64) (lo2, hi float64, err error) {
	lo2, hi, _, _, err = expandBracketWith(f, lo, hi0, grow, f(lo))
	return lo2, hi, err
}

// expandBracketWith is ExpandBracket with flo = f(lo) already evaluated,
// additionally returning the endpoint values so callers can thread them
// into BrentWith without re-evaluating.
func expandBracketWith(f func(float64) float64, lo, hi0, grow, flo float64) (a, b, fa, fb float64, err error) {
	if grow <= 1 {
		grow = 2
	}
	if hi0 <= lo {
		hi0 = lo + 1
	}
	if flo == 0 {
		return lo, lo, 0, 0, nil
	}
	hi := hi0
	for i := 0; i < 200; i++ {
		fhi := f(hi)
		if fhi == 0 || math.Signbit(fhi) != math.Signbit(flo) {
			return lo, hi, flo, fhi, nil
		}
		lo, flo = hi, fhi
		hi *= grow
		if math.IsInf(hi, 0) {
			break
		}
	}
	return lo, hi, flo, 0, fmt.Errorf("numeric: ExpandBracket: no sign change found up to %g", hi)
}

// SolveIncreasing finds the root of a strictly increasing function f that is
// negative at lo. It expands the bracket upward from hi0 and then applies
// Brent. It is the workhorse for the utilization gap equation g(φ)=0 of
// Lemma 1, where g is strictly increasing, negative at 0⁺ and eventually
// positive.
func SolveIncreasing(f func(float64) float64, lo, hi0 float64) (float64, error) {
	return SolveIncreasingWith(f, lo, hi0, f(lo))
}

// SolveIncreasingWith is SolveIncreasing with flo = f(lo) already
// evaluated. It threads the known endpoint values through bracket expansion
// into Brent, so no point is evaluated twice; the root is identical to
// SolveIncreasing's (same bracket, same iteration).
func SolveIncreasingWith(f func(float64) float64, lo, hi0, flo float64) (float64, error) {
	if flo == 0 {
		return lo, nil
	}
	if flo > 0 {
		return 0, fmt.Errorf("numeric: SolveIncreasing: f(%g)=%g > 0; no root above lo", lo, flo)
	}
	a, b, fa, fb, err := expandBracketWith(f, lo, hi0, 2, flo)
	if err != nil {
		return 0, err
	}
	return BrentWith(f, a, b, fa, fb, RootTol)
}
