package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when factorizing or solving with a numerically
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU is an LU factorization with partial pivoting: P·A = L·U, stored packed
// in lu with the permutation in piv. The zero value is not usable; build one
// with Factorize.
type LU struct {
	lu    *Matrix
	piv   []int
	signP float64 // determinant sign of the permutation
}

// Factorize computes the pivoted LU factorization of square a. The input is
// not modified.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, errors.New("linalg: Factorize requires a square matrix")
	}
	n := a.Rows()
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at/below the diagonal.
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[k*n+j], lu.data[p*n+j] = lu.data[p*n+j], lu.data[k*n+j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-m*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv, signP: sign}, nil
}

// Solve returns x with A·x = b.
func (f *LU) Solve(b Vector) (Vector, error) {
	n := f.lu.Rows()
	mustSameLen(n, len(b))
	x := make(Vector, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// Det returns det(A).
func (f *LU) Det() float64 {
	d := f.signP
	n := f.lu.Rows()
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Det returns det(A), or 0 if A is exactly singular.
func Det(a *Matrix) float64 {
	f, err := Factorize(a)
	if err != nil {
		return 0
	}
	return f.Det()
}
