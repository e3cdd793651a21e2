package oligopoly

import (
	"testing"
)

// BenchmarkOligopolyCPEquilibrium measures one N = 3 CP-equilibrium solve at
// fixed prices through the one-shot allocating entry.
func BenchmarkOligopolyCPEquilibrium(b *testing.B) {
	m := smallMarketN(3)
	p := []float64{0.9, 1.0, 1.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.CPEquilibrium(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOligopolyWS is the workspace counterpart: the same N = 3 solve on
// a reused workspace, which must report zero allocations. evals/op is the
// best-response layer's work: summed-utility evaluations per solve.
func BenchmarkOligopolyWS(b *testing.B) {
	m := smallMarketN(3)
	ws := NewWorkspace()
	p := []float64{0.9, 1.0, 1.1}
	if _, _, err := m.CPEquilibriumWS(ws, p, nil); err != nil {
		b.Fatal(err)
	}
	evals := ws.UtilityEvals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.CPEquilibriumWS(ws, p, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ws.UtilityEvals()-evals)/float64(b.N), "evals/op")
}

// BenchmarkOligopolyChainWS measures the sweep inner loop: warm-carried,
// φ-chained consecutive solves on one workspace (also zero-alloc).
func BenchmarkOligopolyChainWS(b *testing.B) {
	m := smallMarketN(3)
	ws := NewWorkspace()
	p := []float64{0.9, 1.0, 1.1}
	s, _, err := m.CPEquilibriumChainWS(ws, p, nil, false)
	if err != nil {
		b.Fatal(err)
	}
	warm := make([]float64, len(s))
	copy(warm, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := m.CPEquilibriumChainWS(ws, p, warm, true)
		if err != nil {
			b.Fatal(err)
		}
		copy(warm, s)
	}
}

// BenchmarkOligopolyPriceEquilibrium measures the full N = 3 two-level
// solve: sequential price best responses with CP re-equilibration inside
// every revenue evaluation.
func BenchmarkOligopolyPriceEquilibrium(b *testing.B) {
	m := smallMarketN(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := m.PriceEquilibrium(2, 6); err != nil {
			b.Fatal(err)
		}
	}
}
