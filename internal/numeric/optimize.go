package numeric

import "math"

// This file holds the bounded one-dimensional optimizers. MinimizeGolden is
// plain golden-section search, linear convergence at a fixed ratio.
// MaximizeOnInterval, the search behind every best response by direct
// maximization (duopoly, oligopoly, planner, twosided and the game's search
// path), scans a grid and refines the best cell with Brent's localmin,
// which converges superlinearly on a smooth maximum: about 9 refinement
// evaluations where golden-section needs 47 to reach OptTol.

// invPhi is 1/φ for the golden-section search.
var invPhi = (math.Sqrt(5) - 1) / 2

// MinimizeGolden minimizes f on [a, b] by golden-section search and returns
// the minimizing x and f(x). Golden-section is derivative-free and converges
// linearly, which is exactly right for the smooth single-valley slices this
// repository produces; callers that cannot guarantee unimodality should scan
// first (see MaximizeOnInterval).
func MinimizeGolden(f func(float64) float64, a, b, tol float64) (x, fx float64) {
	if tol <= 0 {
		tol = OptTol
	}
	if b < a {
		a, b = b, a
	}
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 4*MaxIter && b-a > tol; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = a + (b-a)/2
	return x, f(x)
}

// MaximizeOnInterval maximizes f on [a, b] and returns the maximizing x and
// f(x). It first scans a uniform grid of gridPts points (pass 0 for the
// default of 33), both endpoints included, to locate the best cell — which
// makes it robust to mild multi-modality and finds endpoint maxima — and
// then refines inside the two cells around the best grid point with Brent's
// localmin: parabolic interpolation with a golden-section safeguard (R. P.
// Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5).
//
// The refinement starts from the best grid point, whose value the scan
// already holds, and stops once both ends of the bracket around the
// incumbent x lie within 2·tol of it, tol = √ε·|x| + OptTol/3. OptTol is
// the absolute floor under the relative √ε·|x| term, so it sets the
// accuracy only near x = 0.
// The result is the best point evaluated, grid points included, so x never
// leaves [a, b] and fx is exactly the value f returned at x. An evaluation
// may fail by returning −Inf (or NaN): such a point is never preferred to a
// finite one, and a parabola through it falls back to a golden step.
func MaximizeOnInterval(f func(float64) float64, a, b float64, gridPts int) (x, fx float64) {
	if b < a {
		a, b = b, a
	}
	if a == b {
		return a, f(a)
	}
	if gridPts < 3 {
		gridPts = 33
	}
	h := (b - a) / float64(gridPts-1)
	bestI, bestF := 0, math.Inf(-1)
	for i := 0; i < gridPts; i++ {
		if v := f(gridPoint(a, b, h, i, gridPts)); v > bestF {
			bestI, bestF = i, v
		}
	}
	lo := gridPoint(a, b, h, max(bestI-1, 0), gridPts)
	hi := gridPoint(a, b, h, min(bestI+1, gridPts-1), gridPts)
	return localMax(f, lo, hi, gridPoint(a, b, h, bestI, gridPts), bestF)
}

// gridPoint is the i-th of n uniform grid points on [a, b] with spacing h,
// the last one pinned to b so rounding in a + i·h cannot step past it.
func gridPoint(a, b, h float64, i, n int) float64 {
	if i == n-1 {
		return b
	}
	return a + float64(i)*h
}

// sqrtEps is √ε for float64 (2⁻²⁶), the relative resolution below which a
// smooth maximum cannot be located from function values.
const sqrtEps = 0x1p-26

// localMax is Brent's localmin, written for maximization, on [a, b] started
// from the incumbent x ∈ [a, b] with known value fx. x may sit on an end of
// the bracket (an edge cell of the grid): every step then lands strictly
// inside, so the incumbent never leaves [a, b]. The parabolic step is taken
// only when its acceptance test holds; the test is written so that a NaN
// parabola fails it, which makes failed evaluations fall through to a
// golden-section step.
func localMax(f func(float64) float64, a, b, x, fx float64) (float64, float64) {
	const c = 0.3819660112501051 // (3 − √5)/2, the golden-section fraction
	w, v := x, x
	fw, fv := fx, fx
	d, e := 0.0, 0.0
	for iter := 0; iter < MaxIter; iter++ {
		xm := 0.5 * (a + b)
		tol1 := sqrtEps*math.Abs(x) + OptTol/3
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-0.5*(b-a) {
			break
		}
		golden := true
		if math.Abs(e) > tol1 {
			// Vertex of the parabola through (v, fv), (w, fw), (x, fx), as the
			// step p/q from x; the step before last, e, bounds its length.
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			} else {
				q = -q
			}
			eLast := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*eLast) && p > q*(a-x) && p < q*(b-x) {
				golden = false
				d = p / q
				if u := x + d; u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
			}
		}
		if golden {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = c * e
		}
		u := x + d
		if math.Abs(d) < tol1 {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu >= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, fv = w, fw
			w, fw = x, fx
			x, fx = u, fu
			continue
		}
		if u < x {
			a = u
		} else {
			b = u
		}
		if fu >= fw || w == x {
			v, fv = w, fw
			w, fw = u, fu
		} else if fu >= fv || v == x || v == w {
			v, fv = u, fu
		}
	}
	return x, fx
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
