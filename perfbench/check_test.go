package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"neutralnet"
	"neutralnet/internal/experiments"
)

// Each check must reject a perturbed copy of a real result.

func TestSurfaceCheckRejectsPerturbedResults(t *testing.T) {
	eng, err := neutralnet.NewEngine(experiments.EightCPGrid())
	if err != nil {
		t.Fatal(err)
	}
	grid := neutralnet.Grid{P: neutralnet.UniformGrid(0.3, 1.5, 5), Q: []float64{0.5, 1}, Mu: []float64{1}}
	fresh := func() *neutralnet.SweepResult {
		res, err := eng.Sweep(grid)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	n := grid.Size()
	if err := checkSurface(eng, fresh(), n, []int{0, n - 1}); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	if checkSurface(eng, fresh(), n+1, nil) == nil {
		t.Error("missing point accepted")
	}
	res := fresh()
	res.Points[3].Eq.Converged = false
	if checkSurface(eng, res, n, nil) == nil {
		t.Error("non-converged point accepted")
	}
	res = fresh()
	for i, s := range res.Points[2].Eq.S {
		res.Points[2].Eq.S[i] = s/2 + res.Points[2].Q/4
	}
	if checkSurface(eng, res, n, []int{2}) == nil {
		t.Error("profile off the equilibrium passed the KKT check")
	}
}

func TestOligopolyCheckRejectsPerturbedResults(t *testing.T) {
	eng, err := neutralnet.NewEngine(twoCPSystem())
	if err != nil {
		t.Fatal(err)
	}
	cube := [][]float64{{0.8, 1, 1.2}, {0.9, 1.1}, {1, 1.2}}
	fresh := func() *neutralnet.OligopolySweepSummary {
		s, err := eng.Oligopoly(oligoMu, sigma, capQ)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.SweepPricesStream(cube, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	const n = 12
	if err := checkOligopoly(fresh(), n, n); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	if checkOligopoly(fresh(), n, n-1) == nil {
		t.Error("missing emitted segment accepted")
	}
	sum := fresh()
	sum.Points--
	if checkOligopoly(sum, n, n) == nil {
		t.Error("short summary accepted")
	}
	sum = fresh()
	sum.BestRevenue.Revenue[1] = math.NaN()
	if checkOligopoly(sum, n, n) == nil {
		t.Error("NaN argmax revenue accepted")
	}
	sum = fresh()
	sum.BestWelfare.Welfare = math.Inf(1)
	if checkOligopoly(sum, n, n) == nil {
		t.Error("infinite argmax welfare accepted")
	}
}

func TestDuopolyCheckRejectsWrongArgmax(t *testing.T) {
	eng, err := neutralnet.NewEngine(twoCPSystem())
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Duopoly(duoMu, sigma, capQ)
	if err != nil {
		t.Fatal(err)
	}
	g := neutralnet.UniformGrid(0.5, 1.5, 9)
	dense, err := s.SweepPrices(g, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SweepPricesAdaptive(g, g)
	if err != nil {
		t.Fatal(err)
	}
	ref := denseArgmaxRank(dense)
	if err := checkDuopoly(res, ref); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	res.BestRank = (res.BestRank + 1) % res.Dense
	if checkDuopoly(res, ref) == nil {
		t.Error("wrong argmax rank accepted")
	}
}

func TestQueriesCountDifferingHitsAndBadMissesAsFailures(t *testing.T) {
	b, err := setupQueries(7)
	if err != nil {
		t.Fatal(err)
	}
	qb := b.(*queriesBench)
	eng, c := qb.eng, qb.client
	c.reset()
	c.loop(eng, time.Now(), time.Now().Add(200*time.Millisecond), nil)
	if c.failed != 0 || c.answered < queryBlock {
		t.Fatalf("clean run: %d failed, %d answered", c.failed, c.answered)
	}
	// Corrupt one stored first answer: the next repeat of its key is a
	// cache hit that no longer matches.
	bad := c.first[0].Clone()
	bad.S[0] = math.Nextafter(bad.S[0], 1)
	c.first[0] = bad
	c.reset()
	c.loop(eng, time.Now(), time.Now().Add(200*time.Millisecond), nil)
	if c.failed == 0 {
		t.Error("cache hit differing in one bit was not counted as a failure")
	}

	eq, err := eng.SolveAt(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEquilibrium(eq, eq.Clone()) {
		t.Error("identical equilibria compared unequal")
	}
	eq2 := eq.Clone()
	eq2.Iterations++
	if sameEquilibrium(eq, eq2) {
		t.Error("iteration count difference ignored")
	}
	eq2 = eq.Clone()
	for i := range eq2.S {
		eq2.S[i] = 0.5
	}
	if checkKKT(eng, 1, 1, 1, eq2) == nil {
		t.Error("off-equilibrium miss passed the KKT check")
	}
}

// failingOps is a serial workload whose every second output fails its check.
type failingOps struct{}

func (failingOps) op(int, *tracer, int) (int, error) { return 10, nil }
func (failingOps) check(i int) error {
	if i%2 == 1 {
		return errors.New("perturbed")
	}
	return nil
}

func TestSerialLoopCountsCheckFailures(t *testing.T) {
	tl := serialLoop(20*time.Millisecond, nil, failingOps{})
	if tl.attempted < 2 || tl.failed != tl.attempted/2 || tl.points != 10*(tl.attempted-tl.failed) {
		t.Fatalf("attempted %d failed %d points %d", tl.attempted, tl.failed, tl.points)
	}
}

func TestSeedsChangeInputs(t *testing.T) {
	if reflect.DeepEqual(surfaceInputs(1), surfaceInputs(2)) {
		t.Error("surface: seeds 1 and 2 give the same grids")
	}
	if reflect.DeepEqual(oligopolyInputs(1), oligopolyInputs(2)) {
		t.Error("oligopoly: seeds 1 and 2 give the same hypercubes")
	}
	if reflect.DeepEqual(duopolyInputs(1), duopolyInputs(2)) {
		t.Error("duopoly: seeds 1 and 2 give the same planes")
	}
	if reflect.DeepEqual(newClient(1).hot, newClient(2).hot) {
		t.Error("queries: seeds 1 and 2 give the same hot keys")
	}
	if !reflect.DeepEqual(surfaceInputs(3), surfaceInputs(3)) {
		t.Error("surface: one seed gives two different inputs")
	}
}

// runJSON runs the benchmark in-process and decodes its last output line.
func runJSON(t *testing.T, args ...string) jsonResult {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res
}

func names(defs []metricDef) []string {
	var ns []string
	for _, d := range defs {
		ns = append(ns, d.name)
	}
	sort.Strings(ns)
	return ns
}

func keys(m map[string]jsonMetric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestSeedsKeepMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Span files go to the working directory's .bench_build.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, wl := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			want := names(mode.defs)
			for _, seed := range []string{"1", "2"} {
				res := runJSON(t, "-workload", wl.name, "-seed", seed, "-seconds", "0.3", "-trace", mode.trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %s trace %s: correct %v, %d/%d failed", wl.name, seed, mode.trace, res.Correct, res.Failed, res.Attempted)
				}
				if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %s trace %s: metrics %v, want %v", wl.name, seed, mode.trace, got, want)
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root must describe what this program
// prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, here %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %v, here %v", c.kind, i, m, w)
			}
		}
	}
}

// A stall that stretches one op over two windows lowers the mean throughput
// but not the windowed median.
func TestWindowRateIgnoresAStall(t *testing.T) {
	tl := &tally{}
	at := 0.0
	add := func(d float64) {
		tl.spans = append(tl.spans, opSpan{at, at + d, 10})
		tl.points += 10
		at += d
	}
	for i := 0; i < 100; i++ {
		add(0.1)
		if i == 50 {
			add(2)
		}
	}
	tl.busy = time.Duration(at * float64(time.Second))
	if got := tl.windowRate(); math.Abs(got-100) > 1e-6 {
		t.Errorf("windowRate = %g, want 100", got)
	}
	if got := tl.pointsPerSec(); got > 85 {
		t.Errorf("pointsPerSec = %g, want the stall to pull it below 85", got)
	}
}

func TestOpQuantileIgnoresAStalledStretch(t *testing.T) {
	tl := &tally{}
	for i := 0; i < 250; i++ {
		lat := 100 + float64(i%10) // 100..109 ms
		if i >= 100 && i < 140 {
			lat *= 1.6 // a stall slows 16% of the ops, all in one stretch
		}
		tl.lat = append(tl.lat, lat)
	}
	if got := tl.opQuantile(0.9); got > 110 {
		t.Errorf("opQuantile(0.9) = %g, want the stalled stretch ignored (≤ 110)", got)
	}
	if got := quantile(tl.lat, 0.9); got < 150 {
		t.Errorf("whole-phase p90 = %g, want the stall to lift it above 150", got)
	}
	short := &tally{lat: tl.lat[:50]}
	if got, want := short.opQuantile(0.9), quantile(short.lat, 0.9); got != want {
		t.Errorf("short phase: opQuantile(0.9) = %g, want the whole-phase %g", got, want)
	}
}
