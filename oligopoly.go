package neutralnet

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"neutralnet/internal/oligopoly"
	"neutralnet/internal/sweep"
)

// OligopolySession is a reusable equilibrium-computation session over an
// N-network access market sharing the Engine's CP catalog — the §6
// competition scenarios at any N. It owns one oligopoly workspace (so
// repeated solves are allocation-free once warm), a bounded equilibrium
// cache keyed on the price vector, and a warm-start store seeding each CP
// equilibrium from the previous one.
//
// An OligopolySession is safe for concurrent use (solves are serialized on
// the one workspace; sweeps run their own worker pools on private
// workspaces). Warm starting makes a solved equilibrium depend on the
// session's solve history within solver tolerance; the sweeps are the
// exception — they never read the session state, so their surfaces are
// bit-identical regardless of history or worker count.
type OligopolySession struct {
	sessionCore[OligopolyOutcome]
}

// OligopolyOutcome is one solved oligopoly competition point: the CP
// subsidy equilibrium at fixed access prices, with every network's physical
// state summarized. All slices are owned by the outcome.
type OligopolyOutcome struct {
	P       []float64 // access prices (p₁..p_N)
	Shares  []float64 // logit user split
	S       []float64 // CP subsidy equilibrium (shared across networks)
	Phi     []float64 // per-network equilibrium utilization
	Revenue []float64 // per-ISP usage revenue p_k·Σθ^k
	Welfare float64   // Σ v_i·Σ_k θ_i^k
}

// TotalRevenue returns the combined ISP revenue Σ_k p_k·Σθ^k.
func (o *OligopolyOutcome) TotalRevenue() float64 {
	total := 0.0
	for _, r := range o.Revenue {
		total += r
	}
	return total
}

// oligopolyOutcome assembles an owning OligopolyOutcome from a (possibly
// workspace-borrowed) price vector, profile and state.
func oligopolyOutcome(m *oligopoly.Market, p, prof []float64, st oligopoly.State) OligopolyOutcome {
	n := m.Players()
	out := OligopolyOutcome{
		P:       append([]float64(nil), p...),
		Shares:  append([]float64(nil), st.Shares...),
		S:       append([]float64(nil), prof...),
		Phi:     make([]float64, n),
		Revenue: make([]float64, n),
		Welfare: m.Welfare(st),
	}
	for k := 0; k < n; k++ {
		out.Phi[k] = st.Net[k].Phi
		out.Revenue[k] = st.Revenue(k)
	}
	return out
}

func (o OligopolyOutcome) clone() OligopolyOutcome {
	o.P = append([]float64(nil), o.P...)
	o.Shares = append([]float64(nil), o.Shares...)
	o.S = append([]float64(nil), o.S...)
	o.Phi = append([]float64(nil), o.Phi...)
	o.Revenue = append([]float64(nil), o.Revenue...)
	return o
}

func (o OligopolyOutcome) poisoned() OligopolyOutcome {
	for k := range o.Revenue {
		o.Revenue[k] = math.NaN()
	}
	o.Welfare = math.NaN()
	return o
}

func (o OligopolyOutcome) subsidies() []float64 { return o.S }
func (o OligopolyOutcome) key() string          { return priceKey(o.P) }
func (o OligopolyOutcome) objectives() (float64, float64) {
	return o.TotalRevenue(), o.Welfare
}

// Oligopoly opens an N-ISP competition session over the Engine's CP catalog
// and utilization family: one capacity per ISP in mu (N = len(mu); the
// Engine's own µ is not consulted — the oligopoly splits the access market
// explicitly), logit price sensitivity sigma, and subsidy cap q. The
// session inherits the Engine's Nash scheme, utilization kernel and
// worker-pool size, so WithSolver, WithUtilizationSolver and WithWorkers
// reach the oligopoly end-to-end; the hot-path warm kernel is the default
// here as everywhere. The session keeps its own solver telemetry
// (SolverStats), separate from the Engine's.
//
// The DuopolySession is this session at N = 2 behind a [2]float64 facade;
// an N = 1 market's MonopolyBenchmark reproduces the duopoly benchmark.
func (e *Engine) Oligopoly(mu []float64, sigma, q float64) (*OligopolySession, error) {
	s := &OligopolySession{}
	if err := s.init(e, sweep.SurfaceOligopoly, mu, sigma, q, oligopolyOutcome); err != nil {
		return nil, err
	}
	return s, nil
}

// Players returns N, the session's ISP count.
func (s *OligopolySession) Players() int { return s.m.Players() }

// CachedPrices returns the resident cache keys oldest-first — the FIFO
// eviction order: the next insertion past the cache bound evicts the first
// returned vector. Intended for observability and tests; the slices are a
// snapshot the caller owns.
func (s *OligopolySession) CachedPrices() [][]float64 {
	return cachedAs(&s.sessionCore, func(o OligopolyOutcome) []float64 { return append([]float64(nil), o.P...) })
}

// Solve returns the CP subsidization equilibrium of the oligopoly at access
// prices p (one per ISP), consulting the cache and warm-starting from the
// session's previous solve.
func (s *OligopolySession) Solve(p ...float64) (OligopolyOutcome, error) {
	return s.SolveCtx(context.Background(), p...)
}

// SolveCtx is Solve with cooperative cancellation: a single solve is one
// cancellation segment, so ctx is checked once on entry — an already
// cancelled context returns ctx.Err() with the session cache and warm
// store untouched, and an uncancelled call is bit-identical to Solve.
func (s *OligopolySession) SolveCtx(ctx context.Context, p ...float64) (OligopolyOutcome, error) {
	return s.solveCtx(ctx, p)
}

// PriceEquilibrium solves the N ISPs' price competition on [0, pMax] by
// sequential best responses (maxRounds ≤ 0 selects the default), with the
// CPs re-equilibrating inside every revenue evaluation, and returns the
// equilibrium outcome. It runs entirely on its own workspace and leaves
// the session cache and warm store untouched.
func (s *OligopolySession) PriceEquilibrium(pMax float64, maxRounds int) (OligopolyOutcome, error) {
	return s.priceEquilibrium(pMax, maxRounds)
}

// OligopolySweepResult is a solved (p₁..p_N) price hypercube in row-major
// order: Outcomes[rank] is the equilibrium at the grid point whose
// coordinates linearize to rank (At resolves coordinates). Grids holds the
// session's own copies of the swept per-ISP price grids.
type OligopolySweepResult struct {
	Grids [][]float64
	// Names are the CP names, matching each outcome's S order — the
	// subsidy column labels of the CSV export.
	Names []string
	// Outcomes is the flat row-major surface: len = Π len(Grids[k]).
	Outcomes []OligopolyOutcome
	// Workers is the worker-pool size the sweep effectively ran on (the
	// session's WithWorkers setting clamped to the chain count). It is a
	// throughput record only: Outcomes is bit-identical at any value.
	Workers int
	// Chains is the number of independent warm-start chains the snake path
	// was cut into — the sweep's parallelism budget.
	Chains int
}

// Len returns the number of swept grid points.
func (r *OligopolySweepResult) Len() int { return len(r.Outcomes) }

// At returns the outcome at grid coordinates idx (one index per ISP). It
// panics, like an out-of-range index expression, when len(idx) differs
// from the grid count or a coordinate lies outside its grid.
func (r *OligopolySweepResult) At(idx ...int) OligopolyOutcome {
	if len(idx) != len(r.Grids) {
		panic(fmt.Sprintf("neutralnet: OligopolySweepResult.At: %d coordinates for %d grids", len(idx), len(r.Grids)))
	}
	rank := 0
	for d, i := range idx {
		if i < 0 || i >= len(r.Grids[d]) {
			panic(fmt.Sprintf("neutralnet: OligopolySweepResult.At: coordinate %d out of range [0:%d] on grid %d", i, len(r.Grids[d]), d))
		}
		rank = rank*len(r.Grids[d]) + i
	}
	return r.Outcomes[rank]
}

// SweepPrices solves the CP equilibrium over the Cartesian price hypercube
// ×_k grids[k] on a deterministic worker pool — the same traversal
// scheduler that backs Engine.Sweep, at N dimensions. The hypercube is
// linearized in snake order (consecutive points are always price
// neighbors, including at axis turns) and cut into fixed, grid-determined
// segments; each worker owns a private workspace, and within a segment
// both the subsidy profile and the per-network utilization seeds φ chain
// point to point while every segment cold-starts its first point. Results
// are therefore bit-identical at any worker count (WithWorkers is purely a
// throughput knob) and independent of the session's history: the sweep
// never reads the session cache or warm store. Solved points populate the
// cache afterwards in snake order — under a cache bound the sweep's last
// points stay resident — and the warm store is refreshed from the final
// path point, so follow-up Solve calls continue the chain. SweepPrices is
// SweepPricesCtx under context.Background(): never cancelled.
func (s *OligopolySession) SweepPrices(grids ...[]float64) (*OligopolySweepResult, error) {
	return s.SweepPricesCtx(context.Background(), grids...)
}

// SweepPricesCtx is SweepPrices with cooperative cancellation at segment
// boundaries: the worker pool polls ctx.Err() once per claimed warm-start
// segment, so an uncancelled run is bit-identical to SweepPrices at any
// worker count, and a cancelled run returns ctx.Err() with the session
// cache and warm store exactly as they were before the call — the fold
// into the session happens only after the whole sweep succeeds. A
// panicking worker likewise surfaces as a *PanicError with nothing folded.
func (s *OligopolySession) SweepPricesCtx(ctx context.Context, grids ...[]float64) (*OligopolySweepResult, error) {
	d, err := s.sweepDense(ctx, grids)
	if err != nil {
		return nil, err
	}
	return &OligopolySweepResult{Grids: d.grids, Names: s.names(), Outcomes: d.outcomes, Workers: d.workers, Chains: d.chains}, nil
}

// ArgmaxTotalRevenue returns the grid outcome maximizing combined ISP
// revenue; ties resolve to the lowest row-major rank. Outcomes whose
// combined revenue is non-finite are skipped — a NaN at one grid point must
// not poison the maximum by failing every comparison; if every outcome is
// non-finite the first outcome is returned.
func (r *OligopolySweepResult) ArgmaxTotalRevenue() OligopolyOutcome {
	best, _ := argmaxRevenue(r.Outcomes, r.Outcomes[0], math.Inf(-1))
	return best
}

// CSV renders the price surface as one row per grid point in row-major
// order, with per-ISP price/share/utilization/revenue columns and per-CP
// subsidy columns. For N = 2 the bytes match the duopoly CSV export.
func (r *OligopolySweepResult) CSV() string {
	var b strings.Builder
	// Builder writes cannot fail, so the WriteCSV error is structurally nil.
	_ = r.WriteCSV(&b)
	return b.String()
}

// WriteCSV streams the CSV rendering of CSV row by row to w — identical
// bytes with O(row) live memory. The first write error aborts.
func (r *OligopolySweepResult) WriteCSV(w io.Writer) error {
	if err := writeSessionCSVHeader(w, len(r.Grids), r.Names); err != nil {
		return err
	}
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		if err := writeSessionCSVRow(w, o.P, o.Shares, o.Phi, o.Revenue, []float64{o.Welfare}, o.S); err != nil {
			return err
		}
	}
	return nil
}

// OligopolySweepSegment is one completed chunk of a streamed price sweep:
// the outcomes of the snake-path range [Lo, Hi) in path order, with each
// outcome's row-major rank. The slices are only valid during the emission
// callback — clone what must be retained.
type OligopolySweepSegment struct {
	Index    int
	Lo, Hi   int
	Outcomes []OligopolyOutcome
	Ranks    []int
}

// OligopolySweepSummary is the constant-memory reduction of a streamed
// price sweep: combined-revenue and welfare accumulators (argmax,
// min/max/mean, WithQuantiles sketches) with the argmax outcomes retained —
// everything ArgmaxTotalRevenue answers, without the outcome hypercube.
type OligopolySweepSummary struct {
	Grids  [][]float64
	Names  []string // CP names, matching each outcome's S order
	Chains int
	Points int

	// TotalRevenue folds the combined ISP revenue Σ_k p_k·Σθ^k; Welfare
	// folds Σ v_i·Σ_k θ_i^k. Argmax ties resolve to the lowest row-major
	// rank, matching ArgmaxTotalRevenue.
	TotalRevenue SweepAccumulator
	Welfare      SweepAccumulator
	BestRevenue  OligopolyOutcome
	BestWelfare  OligopolyOutcome
}

// SweepPricesStream solves the price hypercube exactly like SweepPrices —
// same snake path, segment cut, warm chains and per-point solves — but
// never materializes the outcome surface: completed segments are handed to
// emit (which may be nil) in strict snake order and folded into the
// returned summary, holding O(segment · workers) outcomes live regardless
// of grid size. The summary is bit-identical at any worker count and
// session history. The session is left exactly as SweepPrices leaves it:
// solved points fold into the cache in snake order (under a cache bound
// the sweep's tail stays resident) and the warm store continues from the
// final path point — but only when the whole sweep succeeds. A failed,
// cancelled or panicking sweep leaves the cache and warm store exactly as
// they were before the call: the fold is staged during the sweep and
// committed atomically after the last segment, so a follow-up Solve on a
// failed session is bit-identical to one on a session that never swept.
// SweepPricesStream is SweepPricesStreamCtx under context.Background().
func (s *OligopolySession) SweepPricesStream(grids [][]float64, emit func(OligopolySweepSegment) error) (*OligopolySweepSummary, error) {
	return s.SweepPricesStreamCtx(context.Background(), grids, emit)
}

// SweepPricesStreamCtx is SweepPricesStream with cooperative cancellation
// at segment boundaries: the ordered pool polls ctx.Err() once per claimed
// segment, an uncancelled run is bit-identical to SweepPricesStream at any
// worker count, and a cancelled run returns ctx.Err() with no further emit
// calls and the session cache and warm store untouched.
func (s *OligopolySession) SweepPricesStreamCtx(ctx context.Context, grids [][]float64, emit func(OligopolySweepSegment) error) (*OligopolySweepSummary, error) {
	st, err := s.sweepStream(ctx, grids, func(c, lo, hi int, outs []OligopolyOutcome, ranks []int) error {
		if emit == nil {
			return nil
		}
		return emit(OligopolySweepSegment{Index: c, Lo: lo, Hi: hi, Outcomes: outs, Ranks: ranks})
	})
	if err != nil {
		return nil, err
	}
	return &OligopolySweepSummary{
		Grids: st.grids, Names: s.names(), Chains: st.chains, Points: st.points,
		TotalRevenue: st.revenue, Welfare: st.welfare,
		BestRevenue: st.bestRevenue, BestWelfare: st.bestWelfare,
	}, nil
}

// OligopolyAdaptiveResult is the sparse result of a coarse-to-fine price
// sweep: only the outcomes the refinement visited, in deterministic solve
// order, plus the argmax under the session's objective.
type OligopolyAdaptiveResult struct {
	Grids     [][]float64
	Names     []string
	Objective string

	// Outcomes are the solved points in deterministic solve order; Ranks
	// give each outcome's row-major index in the hypercube a dense
	// SweepPrices would build.
	Outcomes []OligopolyOutcome
	Ranks    []int

	// Best is the argmax outcome under Objective; BestRank its row-major
	// rank (−1 when no outcome had a finite objective).
	Best     OligopolyOutcome
	BestRank int

	Solved int // len(Outcomes)
	Dense  int // points a dense SweepPrices would have solved
	Rounds int // refinement rounds after the coarse stage
	Cells  int // cells subdivided
}

// SweepPricesAdaptive locates the price hypercube's argmax — combined ISP
// revenue by default, welfare under WithRefineObjective — coarse-to-fine: a
// coarse price lattice is solved first and only the highest-ranked cells
// are recursively subdivided through warm chains, under the Engine's
// WithRefineBudget (default 40% of the dense grid) and WithRefineDepth. The
// refinement trajectory is deterministic at any worker count. Unlike
// SweepPrices, the session cache and warm store are left untouched: the
// refinement's chains jump around the hypercube, and folding them in would
// make the session's warm chain depend on the refinement trajectory.
// SweepPricesAdaptive is SweepPricesAdaptiveCtx under context.Background().
func (s *OligopolySession) SweepPricesAdaptive(grids ...[]float64) (*OligopolyAdaptiveResult, error) {
	return s.SweepPricesAdaptiveCtx(context.Background(), grids...)
}

// SweepPricesAdaptiveCtx is SweepPricesAdaptive with cooperative
// cancellation: ctx is polled between refinement rounds and at every
// chain-segment boundary inside each round's pool. An uncancelled run is
// bit-identical to SweepPricesAdaptive; a cancelled one returns ctx.Err()
// (the session was untouched either way).
func (s *OligopolySession) SweepPricesAdaptiveCtx(ctx context.Context, grids ...[]float64) (*OligopolyAdaptiveResult, error) {
	a, err := s.sweepAdaptive(ctx, grids)
	if err != nil {
		return nil, err
	}
	return &OligopolyAdaptiveResult{
		Grids: a.grids, Names: s.names(), Objective: a.objective,
		Outcomes: a.outcomes, Ranks: a.ranks, Best: a.best, BestRank: a.bestRank,
		Solved: a.solved, Dense: a.dense, Rounds: a.rounds, Cells: a.cells,
	}, nil
}
