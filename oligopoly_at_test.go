package neutralnet_test

import (
	"testing"

	"neutralnet"
)

// TestOligopolySweepResultAtPanicsOutOfRange pins At's index contract: a
// coordinate outside its grid or a wrong coordinate count panics like an
// index error instead of aliasing onto another grid point — on a 3×3 grid
// At(0, 5) would otherwise land on (1, 2), and At(1) on (0, 1).
func TestOligopolySweepResultAtPanicsOutOfRange(t *testing.T) {
	grid := []float64{0.8, 1, 1.2}
	res := &neutralnet.OligopolySweepResult{
		Grids:    [][]float64{grid, grid},
		Outcomes: make([]neutralnet.OligopolyOutcome, 9),
	}
	for i := range res.Outcomes {
		res.Outcomes[i].Welfare = float64(i)
	}
	if got := res.At(1, 2).Welfare; got != 5 {
		t.Fatalf("At(1, 2) returned rank %v, want 5", got)
	}
	for _, idx := range [][]int{{0, 5}, {3, 0}, {-1, 1}, {1}, {0, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At%v did not panic", idx)
				}
			}()
			out := res.At(idx...)
			t.Errorf("At%v returned the outcome at rank %v", idx, out.Welfare)
		}()
	}
}
