package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Submatrix returns the matrix restricted to the given row and column index
// sets (in order). Used for principal minors and for the Ñ-restricted
// Jacobian of Theorem 6.
func (m *Matrix) Submatrix(rowIdx, colIdx []int) *Matrix {
	out := NewMatrix(len(rowIdx), len(colIdx))
	for i, r := range rowIdx {
		for j, c := range colIdx {
			out.Set(i, j, m.At(r, c))
		}
	}
	return out
}
