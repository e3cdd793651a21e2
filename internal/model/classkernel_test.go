package model

import (
	"math"
	"math/rand"
	"testing"

	"neutralnet/internal/econ"
)

// tanhThroughput is a non-exponential throughput family, λ(φ) =
// Peak·(1 − tanh(βφ)), so the class table must keep it on the interface path.
type tanhThroughput struct{ Peak, Beta float64 }

func (t tanhThroughput) Lambda(phi float64) float64 { return t.Peak * (1 - math.Tanh(t.Beta*phi)) }

func (t tanhThroughput) DLambda(phi float64) float64 {
	th := math.Tanh(t.Beta * phi)
	return -t.Peak * t.Beta * (1 - th*th)
}

// mixedUtils are the three utilization kernels every bit-identity property
// runs under.
var mixedUtils = []econ.Utilization{
	econ.LinearUtilization{},
	econ.PowerUtilization{Gamma: 1.7},
	econ.SaturatingUtilization{},
}

// mixedSystem builds a seeded random market of 3–9 CPs mixing exponential
// throughput with repeated β and distinct peaks (the class-table path) with
// RationalThroughput, tanhThroughput and *econ.ExpThroughput (a pointer, so
// not the value type the table groups: the interface path).
func mixedSystem(rng *rand.Rand, util econ.Utilization) *System {
	betas := []float64{2, 5, 0.5 + 4*rng.Float64()}
	n := 3 + rng.Intn(7)
	cps := make([]CP, n)
	for k := range cps {
		peak := 0.5 + 2*rng.Float64()
		beta := betas[rng.Intn(len(betas))]
		var th econ.Throughput
		switch r := rng.Intn(10); {
		case r < 6:
			th = econ.ExpThroughput{Beta: beta, Peak: peak}
		case r < 7:
			th = econ.RationalThroughput{Beta: beta, Peak: peak}
		case r < 8:
			th = tanhThroughput{Beta: beta, Peak: peak}
		default:
			th = &econ.ExpThroughput{Beta: beta, Peak: peak}
		}
		cps[k] = CP{Demand: econ.NewExpDemand(0.5 + 5*rng.Float64()), Throughput: th, Value: 1}
	}
	return &System{CPs: cps, Mu: 0.3 + 1.5*rng.Float64(), Util: util}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestClassKernelBitIdentity is the bit-identity property of the class
// kernels: on random mixed systems under all three utilization maps, the
// workspace gap, gap derivative, λ, dλ/dφ, ∂φ/∂m_i and SolveInto state equal
// the System reference definitions bit for bit, including when one φ is
// evaluated twice in a row (a cache hit) and across interleaved φ.
func TestClassKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		for _, util := range mixedUtils {
			sys := mixedSystem(rng, util)
			w.Bind(sys)
			m := w.M()
			for k := range m {
				m[k] = sys.CPs[k].Demand.M(2 * rng.Float64())
			}
			for _, phi := range []float64{0, 0.3 * rng.Float64(), 0.3, 0.3, 1 + rng.Float64(), 0} {
				if g, ref := w.gap(phi), sys.Gap(phi, m); !sameBits(g, ref) {
					t.Fatalf("trial %d %T φ=%g: gap %x != %x", trial, util, phi, g, ref)
				}
				if d, ref := w.gapDerivative(phi), sys.GapDerivative(phi, m); !sameBits(d, ref) {
					t.Fatalf("trial %d %T φ=%g: gap derivative %x != %x", trial, util, phi, d, ref)
				}
				for i, cp := range sys.CPs {
					if !sameBits(w.Lambda(i, phi), cp.Throughput.Lambda(phi)) ||
						!sameBits(w.DLambda(i, phi), cp.Throughput.DLambda(phi)) ||
						!sameBits(w.DPhiDM(i, phi), sys.DPhiDM(i, phi, m)) {
						t.Fatalf("trial %d %T φ=%g CP %d (%T): λ/dλ/∂φ∂m differ", trial, util, phi, i, cp.Throughput)
					}
				}
			}
			ref, err := sys.Solve(m)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sys.SolveInto(w)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(st.Phi, ref.Phi) {
				t.Fatalf("trial %d %T: φ %x != %x", trial, util, st.Phi, ref.Phi)
			}
			for k := range ref.Theta {
				if !sameBits(st.Theta[k], ref.Theta[k]) {
					t.Fatalf("trial %d %T CP %d: θ %x != %x", trial, util, k, st.Theta[k], ref.Theta[k])
				}
			}
		}
	}
}

// TestBindRebuildsClassTable rebinds one *System address with a different
// CP list — the pattern of the duopoly/oligopoly workspaces, which assign
// ws.sys[k] and Bind(&ws.sys[k]) for every market — and asserts the class
// table and the φ cache are rebuilt rather than reused.
func TestBindRebuildsClassTable(t *testing.T) {
	exp := func(beta, peak float64) CP {
		return CP{Demand: econ.NewExpDemand(2), Throughput: econ.ExpThroughput{Beta: beta, Peak: peak}}
	}
	var sys System
	w := NewWorkspace()
	sys = System{CPs: []CP{exp(2, 1), exp(2, 3), exp(5, 1)}, Mu: 1, Util: econ.LinearUtilization{}}
	w.Bind(&sys)
	m := []float64{0.4, 0.3, 0.2}
	copy(w.M(), m)
	const phi = 0.25
	w.gap(phi)
	if w.classes != 2 || w.ClassExps() != 2 {
		t.Fatalf("first bind: %d classes, %d exps; want 2, 2", w.classes, w.ClassExps())
	}

	// Same address, new CPs: other β values, other peaks, one family that
	// leaves the table. Evaluating the same φ must recompute, not hit.
	sys = System{CPs: []CP{exp(3, 2), {Demand: econ.NewExpDemand(2), Throughput: econ.RationalThroughput{Beta: 2, Peak: 1}}, exp(7, 0.5)}, Mu: 1, Util: econ.LinearUtilization{}}
	w.Bind(&sys)
	copy(w.M(), m)
	if w.classes != 2 || w.rows[0].class != 0 || w.rows[1].class != -1 || w.rows[2].class != 1 {
		t.Fatalf("rebind kept a stale table: %+v (%d classes)", w.rows, w.classes)
	}
	if g, ref := w.gap(phi), sys.Gap(phi, m); !sameBits(g, ref) {
		t.Fatalf("rebind reused a stale cache: gap %x != %x", g, ref)
	}
	if w.ClassExps() != 4 {
		t.Fatalf("rebind must drop the φ cache: %d exps, want 4", w.ClassExps())
	}

	// Shrinking to one CP reuses the buffers; the table still follows.
	sys = System{CPs: []CP{exp(9, 4)}, Mu: 1, Util: econ.LinearUtilization{}}
	w.Bind(&sys)
	w.M()[0] = 0.5
	if g, ref := w.gap(phi), sys.Gap(phi, w.M()); !sameBits(g, ref) || w.classes != 1 {
		t.Fatalf("shrunk rebind: gap %x != %x (%d classes)", g, ref, w.classes)
	}
}

// eightCPCatalog is the §5.2 eight-CP catalog of experiments.EightCPGrid
// (α, β ∈ {2, 5}, v ∈ {0.5, 1}): eight CPs in two β classes.
func eightCPCatalog() *System {
	var cps []CP
	for _, v := range []float64{0.5, 1} {
		for _, alpha := range []float64{2, 5} {
			for _, beta := range []float64{2, 5} {
				cps = append(cps, CP{Demand: econ.NewExpDemand(alpha), Throughput: econ.NewExpThroughput(beta), Value: v})
			}
		}
	}
	return &System{CPs: cps, Mu: 1, Util: econ.LinearUtilization{}}
}

// TestClassExpCount pins the work count that shows the λ layer moved: on
// the eight-CP catalog a cold SolveInto computes exactly 2 exponentials per
// gap evaluation (one per β class, where System.Gap computes 8) except the
// opening g(0), which costs none, and none for the throughput fill at the
// solved φ, and the counts repeat exactly.
func TestClassExpCount(t *testing.T) {
	sys := eightCPCatalog()
	for _, p := range []float64{0.1, 0.5, 0.9, 1.4} {
		var counts [2]int
		for rep := range counts {
			w := NewWorkspace()
			w.Bind(sys)
			gapEvals := 0
			gap := w.gapFn
			w.gapFn = func(phi float64) float64 { gapEvals++; return gap(phi) }
			sys.PopulationsInto(w.M(), sys.UniformPrices(p))
			if _, err := sys.SolveInto(w); err != nil {
				t.Fatal(err)
			}
			if gapEvals == 0 || w.ClassExps() != 2*(gapEvals-1) {
				t.Fatalf("p=%g: %d exps for %d gap evaluations, want 2 per evaluation after g(0) and 0 for the Θ fill", p, w.ClassExps(), gapEvals)
			}
			counts[rep] = w.ClassExps()
		}
		if counts[0] != counts[1] {
			t.Fatalf("p=%g: exp count did not repeat: %v", p, counts)
		}
	}
}

// TestGapAtZeroSkipsExps pins the g(0) shortcut: with every class β finite
// the gap at φ = ±0 computes no exponential, leaves both cache banks
// holding what they held, and equals System.Gap bit for bit; a class with
// infinite β keeps the exponential path, where e^{−∞·0} is NaN.
func TestGapAtZeroSkipsExps(t *testing.T) {
	sys := eightCPCatalog()
	w := NewWorkspace()
	w.Bind(sys)
	sys.PopulationsInto(w.M(), sys.UniformPrices(0.5))
	w.gap(0.3)
	w.gap(0.5)
	exps := w.ClassExps()
	for _, phi := range []float64{0, math.Copysign(0, -1)} {
		if g, ref := w.gap(phi), sys.Gap(phi, w.M()); !sameBits(g, ref) {
			t.Fatalf("φ=%g: gap %x != %x", phi, g, ref)
		}
	}
	w.Lambda(0, 0.3)
	w.Lambda(0, 0.5)
	if extra := w.ClassExps() - exps; extra != 0 {
		t.Fatalf("g(0) and λ at the two cached φ cost %d exps, want 0", extra)
	}

	inf := &System{CPs: []CP{
		{Demand: econ.NewExpDemand(2), Throughput: econ.ExpThroughput{Beta: 2, Peak: 1}},
		{Demand: econ.NewExpDemand(2), Throughput: econ.ExpThroughput{Beta: math.Inf(1), Peak: 1}},
	}, Mu: 1, Util: econ.LinearUtilization{}}
	w.Bind(inf)
	copy(w.M(), []float64{0.4, 0.3})
	g, ref := w.gap(0), inf.Gap(0, w.M())
	if w.ClassExps()-exps != 2 || !math.IsNaN(g) || !math.IsNaN(ref) {
		t.Fatalf("infinite β: gap %v (ref %v) after %d exps, want NaN after 2", g, ref, w.ClassExps()-exps)
	}
}

// TestNewWorkspaceBindAllocs pins the construction cost: NewWorkspace plus
// the first Bind make the same five allocations as before the class table
// existed (the workspace, two pre-bound closures, and two buffers — the
// populations/throughput slab and the table).
func TestNewWorkspaceBindAllocs(t *testing.T) {
	sys := eightCPCatalog()
	allocs := testing.AllocsPerRun(100, func() {
		NewWorkspace().Bind(sys)
	})
	if allocs != 5 {
		t.Fatalf("NewWorkspace+Bind made %v allocations, want 5", allocs)
	}
}

var benchSink float64

// BenchmarkGap times one utilization-gap evaluation on the eight-CP catalog
// through the System reference (one math.Exp per CP) and through the
// workspace class kernel (one per β class). φ steps through 64 values, so
// every evaluation misses the exponential cache, as a root solve's do.
func BenchmarkGap(b *testing.B) {
	sys := eightCPCatalog()
	w := NewWorkspace()
	w.Bind(sys)
	sys.PopulationsInto(w.M(), sys.UniformPrices(0.5))
	var phis [64]float64
	for j := range phis {
		phis[j] = 0.01 * float64(j+1)
	}
	b.Run("system", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = sys.Gap(phis[i%len(phis)], w.M())
		}
	})
	b.Run("workspace", func(b *testing.B) {
		exps := w.ClassExps()
		for i := 0; i < b.N; i++ {
			benchSink = w.gap(phis[i%len(phis)])
		}
		b.ReportMetric(float64(w.ClassExps()-exps)/float64(b.N), "exps/op")
	})
}

// BenchmarkSolveInto times a cold utilization solve plus throughput fill on
// the eight-CP catalog, reporting the class exponentials it computes.
func BenchmarkSolveInto(b *testing.B) {
	sys := eightCPCatalog()
	w := NewWorkspace()
	w.Bind(sys)
	prices := [][]float64{sys.UniformPrices(0.3), sys.UniformPrices(0.9), sys.UniformPrices(1.5)}
	b.ReportAllocs()
	exps := w.ClassExps()
	for i := 0; i < b.N; i++ {
		sys.PopulationsInto(w.M(), prices[i%len(prices)])
		st, err := sys.SolveInto(w)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = st.Phi
	}
	b.ReportMetric(float64(w.ClassExps()-exps)/float64(b.N), "exps/op")
}
