package neutralnet_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neutralnet"
)

// Session-level golden for the duopoly: the dense price-sweep CSV, the
// streamed summary, the adaptive refinement, the price competition and the
// monopoly comparator are pinned bit for bit against committed files under
// testdata/duopoly. Refresh after a reviewed numerical change with:
//
//	go test -run TestDuopolySessionGolden -update .
var updateGolden = flag.Bool("update", false, "rewrite the duopoly session goldens")

// goldenDuopolySession opens the golden's session: three CPs (one name
// carries a comma, exercising the CSV column escaping), an asymmetric
// capacity split, and quartile sketches on the stream summary.
func goldenDuopolySession(t *testing.T, workers int) *neutralnet.DuopolySession {
	t.Helper()
	sys := neutralnet.NewSystem(1,
		neutralnet.NewCP("video", 4, 2, 1.0),
		neutralnet.NewCP("social", 2, 4, 0.5),
		neutralnet.NewCP("search, maps", 3, 3, 0.8),
	)
	eng, err := neutralnet.NewEngine(sys, neutralnet.WithWorkers(workers), neutralnet.WithQuantiles(0.25, 0.75))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Duopoly([2]float64{0.4, 0.6}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func checkDuopolyGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "duopoly", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (refresh with `go test -run TestDuopolySessionGolden -update .`): %v", name, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the committed golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func goldenBits(b *strings.Builder, label string, vs ...float64) {
	b.WriteString(label)
	for _, v := range vs {
		fmt.Fprintf(b, " %016x", math.Float64bits(v))
	}
	b.WriteByte('\n')
}

func goldenOutcome(b *strings.Builder, label string, o neutralnet.DuopolyOutcome) {
	goldenBits(b, label+" p", o.P[:]...)
	goldenBits(b, label+" shares", o.Shares[:]...)
	goldenBits(b, label+" phi", o.Phi[:]...)
	goldenBits(b, label+" revenue", o.Revenue[:]...)
	goldenBits(b, label+" welfare", o.Welfare)
	goldenBits(b, label+" s", o.S...)
}

func goldenAccumulator(b *strings.Builder, label string, a neutralnet.SweepAccumulator) {
	fmt.Fprintf(b, "%s count %d best_rank %d\n", label, a.Count, a.BestRank)
	goldenBits(b, label+" min/max/sum/best", a.Min, a.Max, a.Sum, a.BestValue)
	goldenBits(b, label+" q25/q75", a.Quantile(0.25), a.Quantile(0.75))
}

// TestDuopolySessionGolden pins the DuopolySession's public numbers: the
// 12×12 dense SweepPrices CSV, the SweepPricesStream summary (points,
// argmax ranks, accumulator bits) with the cache and warm store it
// commits, the SweepPricesAdaptive refinement
// (best rank, solved count, rounds, every outcome's bits),
// PriceEquilibrium and MonopolyBenchmark. Both worker counts must render
// the same bytes, and those bytes must match the committed files.
func TestDuopolySessionGolden(t *testing.T) {
	p1 := neutralnet.UniformGrid(0.4, 1.5, 12)
	p2 := neutralnet.UniformGrid(0.5, 1.4, 12)
	a1 := neutralnet.UniformGrid(0.3, 1.8, 17)
	a2 := neutralnet.UniformGrid(0.4, 1.6, 17)

	var csvs, reports [2]string
	for n, workers := range []int{1, 4} {
		s := goldenDuopolySession(t, workers)
		dense, err := s.SweepPrices(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		csvs[n] = dense.CSV()

		var b strings.Builder
		sum, err := s.SweepPricesStream(p1, p2, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "stream points %d chains %d\n", sum.Points, sum.Chains)
		goldenAccumulator(&b, "stream revenue", sum.TotalRevenue)
		goldenAccumulator(&b, "stream welfare", sum.Welfare)
		goldenOutcome(&b, "stream best-revenue", sum.BestRevenue)
		goldenOutcome(&b, "stream best-welfare", sum.BestWelfare)

		// The committed sweep leaves the cache holding its snake tail and
		// the warm store at the final path point: a follow-up off-grid
		// solve seeds from it.
		cached := s.CachedPrices()
		fmt.Fprintf(&b, "cache len %d\n", len(cached))
		goldenBits(&b, "cache oldest/newest", cached[0][0], cached[0][1], cached[len(cached)-1][0], cached[len(cached)-1][1])
		next, err := s.Solve(0.77, 0.93)
		if err != nil {
			t.Fatal(err)
		}
		goldenOutcome(&b, "post-sweep solve", next)

		ad, err := s.SweepPricesAdaptive(a1, a2)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "adaptive best_rank %d solved %d dense %d rounds %d cells %d\n",
			ad.BestRank, ad.Solved, ad.Dense, ad.Rounds, ad.Cells)
		for k, out := range ad.Outcomes {
			goldenOutcome(&b, fmt.Sprintf("adaptive rank %d", ad.Ranks[k]), out)
		}

		eq, err := s.PriceEquilibrium(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		goldenOutcome(&b, "price-equilibrium", eq)

		price, welfare, subs, err := s.MonopolyBenchmark(2)
		if err != nil {
			t.Fatal(err)
		}
		goldenBits(&b, "monopoly price/welfare", price, welfare)
		goldenBits(&b, "monopoly s", subs...)
		reports[n] = b.String()
	}
	if csvs[0] != csvs[1] {
		t.Fatal("dense CSV differs between 1 and 4 workers")
	}
	if reports[0] != reports[1] {
		t.Fatal("stream/adaptive/competition report differs between 1 and 4 workers")
	}
	checkDuopolyGolden(t, "sweep_12x12.csv", csvs[0])
	checkDuopolyGolden(t, "session.golden", reports[0])
}
