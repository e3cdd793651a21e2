package linalg

// The predicate in this file backs the paper's uniqueness machinery:
// Theorem 4 requires −u to be a P-function, whose Jacobian is a P-matrix
// when restricted to the interior CPs.

// IsPMatrix reports whether every principal minor of square a is strictly
// positive. The test enumerates all 2ⁿ−1 nonempty principal submatrices,
// which is exact and fast for the ≤16-dimensional systems in this
// repository.
func IsPMatrix(a *Matrix) bool {
	n := a.Rows()
	if n != a.Cols() {
		return false
	}
	idx := make([]int, 0, n)
	for mask := 1; mask < 1<<uint(n); mask++ {
		idx = idx[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				idx = append(idx, i)
			}
		}
		if Det(a.Submatrix(idx, idx)) <= 0 {
			return false
		}
	}
	return true
}
