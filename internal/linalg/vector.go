// Package linalg provides the dense linear-algebra substrate used by the
// equilibrium sensitivity analysis (Theorem 6 of the paper): vectors,
// row-major matrices, LU factorization with partial pivoting for solves and
// determinants, and the P-matrix predicate the paper's uniqueness argument
// (Theorem 4) relies on.
//
// Sizes in this repository are tiny (the number of CP types, ≤ ~16), so the
// implementation favors clarity and exactness of the predicates over
// asymptotic speed; the P-matrix test enumerates principal minors, which is
// exponential but exact and instantaneous at these sizes.
package linalg

import "fmt"

// Vector is a dense float64 vector.
type Vector []float64

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("linalg: dimension mismatch %d vs %d", a, b))
	}
}
