package game

import (
	"math"
	"math/rand"
	"testing"

	"neutralnet/internal/econ"
	"neutralnet/internal/model"
	"neutralnet/internal/numeric"
)

// powThroughput is a non-exponential throughput family, λ(φ) =
// Peak·(1+φ)^−β, which the model workspace's class table must leave on the
// interface path.
type powThroughput struct{ Peak, Beta float64 }

func (t powThroughput) Lambda(phi float64) float64 { return t.Peak * math.Pow(1+phi, -t.Beta) }

func (t powThroughput) DLambda(phi float64) float64 {
	return -t.Beta * t.Peak * math.Pow(1+phi, -t.Beta-1)
}

// mixedMarket builds a seeded random market of 3–8 CPs: exponential
// throughput with repeated β and distinct peaks, mixed with
// RationalThroughput and powThroughput CPs.
func mixedMarket(rng *rand.Rand, util econ.Utilization) *model.System {
	betas := []float64{2, 5, 0.5 + 4*rng.Float64()}
	cps := make([]model.CP, 3+rng.Intn(6))
	for k := range cps {
		peak := 0.5 + 2*rng.Float64()
		beta := betas[rng.Intn(len(betas))]
		var th econ.Throughput = econ.ExpThroughput{Beta: beta, Peak: peak}
		switch rng.Intn(6) {
		case 0:
			th = econ.RationalThroughput{Beta: beta, Peak: peak}
		case 1:
			th = powThroughput{Beta: beta, Peak: peak}
		}
		cps[k] = model.CP{
			Demand:     econ.NewExpDemand(0.5 + 5*rng.Float64()),
			Throughput: th,
			Value:      0.2 + rng.Float64(),
		}
	}
	return &model.System{CPs: cps, Mu: 0.3 + 1.5*rng.Float64(), Util: util}
}

// TestMarginalWSBitIdentity asserts the workspace marginal (the kernel the
// best-response root-finds evaluate) equals Game.MarginalUtility bit for bit
// on random mixed markets under the linear, power and saturating
// utilization maps.
func TestMarginalWSBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	utils := []econ.Utilization{econ.LinearUtilization{}, econ.PowerUtilization{Gamma: 1.7}, econ.SaturatingUtilization{}}
	ws := NewWorkspace()
	for trial := 0; trial < 40; trial++ {
		for _, util := range utils {
			g, err := New(mixedMarket(rng, util), 0.2+1.5*rng.Float64(), 0.2+rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			ws.bind(g)
			for j := range ws.s {
				ws.s[j] = g.Q * rng.Float64()
			}
			for i := range ws.s {
				ws.i = i
				ws.prime()
				x := g.Q * rng.Float64()
				got := ws.marginalFn(x)
				ref, err := g.MarginalUtility(i, withSubsidy(ws.s, i, x))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("trial %d %T CP %d (%T): marginal %x != %x", trial, util, i, g.Sys.CPs[i].Throughput, got, ref)
				}
			}
		}
	}
}

// TestMarginalReusesSolvedExps pins the marginal layer's exp count on the
// eight-CP catalog: the state solve costs exactly 2 class exponentials per
// gap evaluation of the reference root solve except its opening g(0),
// which costs none, and the marginal at the
// solved φ — λ_i, ∂φ/∂m_i through dg/dφ, and dλ_i/dφ — adds none. The counts
// repeat exactly on a fresh workspace.
func TestMarginalReusesSolvedExps(t *testing.T) {
	g, err := New(eightCP(), 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 0.3, 0.7, 1} {
		var counts [2]int
		for rep := range counts {
			ws := NewWorkspace()
			ws.bind(g)
			ws.i = 5
			ws.prime()
			ws.s[ws.i] = x
			st, err := g.stateOneWS(ws, ws.i)
			if err != nil {
				t.Fatal(err)
			}
			gapEvals := 0
			gap := func(phi float64) float64 { gapEvals++; return g.Sys.Gap(phi, st.M) }
			if _, err := numeric.SolveIncreasingWith(gap, 0, 1, gap(0)); err != nil {
				t.Fatal(err)
			}
			solved := ws.phys.ClassExps()
			if solved != 2*(gapEvals-1) {
				t.Fatalf("x=%g: state solve cost %d exps for %d gap evaluations, want 2 each after g(0), which costs 0", x, solved, gapEvals)
			}
			g.marginalWS(ws, st)
			if extra := ws.phys.ClassExps() - solved; extra != 0 {
				t.Fatalf("x=%g: marginal at the solved φ cost %d exps, want 0", x, extra)
			}
			counts[rep] = solved
		}
		if counts[0] != counts[1] {
			t.Fatalf("x=%g: exp count did not repeat: %v", x, counts)
		}
	}
}

var benchSink float64

// BenchmarkMarginal times one workspace marginal-utility evaluation — the
// unit a best-response root-find repeats: a utilization solve with player
// i's subsidy swapped in, the throughput fill, and the closed-form
// marginal — on the eight-CP catalog, reporting its class exponentials.
func BenchmarkMarginal(b *testing.B) {
	g, err := New(eightCP(), 0.8, 1)
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace()
	ws.bind(g)
	ws.i = 5
	ws.prime()
	xs := []float64{0.1, 0.4, 0.7}
	b.ReportAllocs()
	exps := ws.phys.ClassExps()
	for i := 0; i < b.N; i++ {
		benchSink = ws.marginalFn(xs[i%len(xs)])
	}
	b.ReportMetric(float64(ws.phys.ClassExps()-exps)/float64(b.N), "exps/op")
}
