package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// FromRows builds a matrix from row slices, which must be rectangular.
func FromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("linalg: FromRows with ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// mulVec returns A·x.
func mulVec(a *Matrix, x Vector) Vector {
	out := make(Vector, a.Rows())
	for i := range out {
		for j, v := range x {
			out[i] += a.At(i, j) * v
		}
	}
	return out
}

// diagDominant returns a random n×n strictly diagonally dominant (hence
// nonsingular) matrix with off-diagonal entries in [−scale, scale).
func diagDominant(rng *rand.Rand, n int, scale float64) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := (rng.Float64()*2 - 1) * scale
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
		}
		a.Set(i, i, rowSum+0.5+rng.Float64())
	}
	return a
}

// TestVectorDimensionPanic pins the dimension check on Vector arguments:
// an LU solve against a right-hand side of the wrong length panics.
func TestVectorDimensionPanic(t *testing.T) {
	f, err := Factorize(FromRows([][]float64{{2, 0}, {0, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	_, _ = f.Solve(Vector{1, 2, 3})
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 || c.At(0, 0) != -1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestSubmatrix(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Submatrix([]int{0, 2}, []int{1, 2})
	if s.At(0, 0) != 2 || s.At(1, 1) != 9 || s.At(1, 0) != 8 {
		t.Fatalf("Submatrix: %v", s)
	}
}

func TestLUSolveKnown(t *testing.T) {
	f, err := Factorize(FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(Vector{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factorize(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero pivot in the (0,0) position forces a row swap.
	f, err := Factorize(FromRows([][]float64{{0, 1}, {1, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(Vector{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 5 || x[1] != 3 {
		t.Fatalf("x = %v", x)
	}
}

func TestDetKnown(t *testing.T) {
	a := FromRows([][]float64{{3, 0, 0}, {0, 2, 0}, {0, 0, -4}})
	if d := Det(a); math.Abs(d+24) > 1e-12 {
		t.Fatalf("det = %v, want -24", d)
	}
	// Permutation sign: swapping rows flips determinant sign.
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	if d := Det(b); math.Abs(d+1) > 1e-12 {
		t.Fatalf("det = %v, want -1", d)
	}
	if d := Det(FromRows([][]float64{{1, 2}, {2, 4}})); d != 0 {
		t.Fatalf("singular det = %v, want 0", d)
	}
}

// TestInverseProperty solves A·x = e_j through one LU factorization for
// every unit column of random nonsingular matrices up to 6×6: the
// solutions are the columns of A⁻¹, so A times each must give e_j back.
func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(6)
		a := diagDominant(rng, n, 1)
		f, err := Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			e := make(Vector, n)
			e[j] = 1
			col, err := f.Solve(e)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range mulVec(a, col) {
				if math.Abs(v-e[i]) > 1e-9 {
					t.Fatalf("iter %d: A·A⁻¹ deviates at (%d,%d): %v", iter, i, j, v)
				}
			}
		}
	}
}

func TestSolveQuick(t *testing.T) {
	// Property: for random 3×3 diagonally dominant A and random x, the LU
	// solve of A·x recovers x.
	rng := rand.New(rand.NewSource(11))
	prop := func() bool {
		a := diagDominant(rng, 3, 2)
		x := Vector{rng.Float64(), rng.Float64(), rng.Float64()}
		f, err := Factorize(a)
		if err != nil {
			return false
		}
		got, err := f.Solve(mulVec(a, x))
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) >= 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIsPMatrix(t *testing.T) {
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !IsPMatrix(id) {
		t.Fatal("identity must be a P-matrix")
	}
	// Classic P-matrix (positive diagonal, small off-diagonals).
	p := FromRows([][]float64{{2, -1}, {-1, 2}})
	if !IsPMatrix(p) {
		t.Fatal("2x2 M-matrix must be a P-matrix")
	}
	// Negative principal minor.
	np := FromRows([][]float64{{-1, 0}, {0, 2}})
	if IsPMatrix(np) {
		t.Fatal("matrix with negative diagonal entry is not a P-matrix")
	}
	// Positive diagonal but negative 2x2 minor.
	np2 := FromRows([][]float64{{1, 3}, {3, 1}})
	if IsPMatrix(np2) {
		t.Fatal("det = -8 < 0 must fail the P test")
	}
	if IsPMatrix(NewMatrix(2, 3)) {
		t.Fatal("non-square cannot be a P-matrix")
	}
}
