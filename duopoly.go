package neutralnet

import (
	"context"
	"io"
	"math"
	"strings"

	"neutralnet/internal/oligopoly"
	"neutralnet/internal/sweep"
)

// DuopolySession is a reusable equilibrium-computation session over a
// two-ISP access market sharing the Engine's CP catalog — the §6
// competition scenarios. It is the N = 2 facade of the N-ISP session
// stack: an OligopolySession's machinery over oligopoly.Market with
// Mu = {µ₁, µ₂}, typed with [2]float64 prices and DuopolyOutcome. It owns
// one workspace (so repeated solves are allocation-free once warm), a
// bounded equilibrium cache keyed on the price pair, and a warm-start
// store: each CP-equilibrium solve is seeded from the previous one, which
// the continuity of the equilibrium path makes an excellent guess on price
// grids.
//
// A DuopolySession is safe for concurrent use (solves are serialized on the
// one workspace; SweepPrices runs its own worker pool on private
// workspaces). Like Engine.Solve, warm starting makes a solved equilibrium
// depend on the session's solve history within solver tolerance; results at
// equal inputs agree to tolerance, not bitwise, across histories.
// SweepPrices is the exception: it never reads the session state, so its
// surfaces are bit-identical regardless of history or worker count.
type DuopolySession struct {
	sessionCore[DuopolyOutcome]
}

// DuopolyOutcome is one solved duopoly competition point: the CP subsidy
// equilibrium at fixed access prices, with both networks' physical states
// summarized. All slices are owned by the outcome.
type DuopolyOutcome struct {
	P       [2]float64 // access prices (p₁, p₂)
	Shares  [2]float64 // logit user split
	S       []float64  // CP subsidy equilibrium (shared across networks)
	Phi     [2]float64 // per-network equilibrium utilization
	Revenue [2]float64 // per-ISP usage revenue p_k·Σθ^k
	Welfare float64    // Σ v_i·(θ_i¹+θ_i²)
}

// duopolyOutcome assembles an owning DuopolyOutcome from a (possibly
// workspace-borrowed) N = 2 price vector, profile and state; the subsidy
// profile is its only allocation.
func duopolyOutcome(m *oligopoly.Market, p, prof []float64, st oligopoly.State) DuopolyOutcome {
	return DuopolyOutcome{
		P:       [2]float64{p[0], p[1]},
		Shares:  [2]float64{st.Shares[0], st.Shares[1]},
		S:       append([]float64(nil), prof...),
		Phi:     [2]float64{st.Net[0].Phi, st.Net[1].Phi},
		Revenue: [2]float64{st.Revenue(0), st.Revenue(1)},
		Welfare: m.Welfare(st),
	}
}

func (o DuopolyOutcome) clone() DuopolyOutcome {
	o.S = append([]float64(nil), o.S...)
	return o
}

func (o DuopolyOutcome) poisoned() DuopolyOutcome {
	o.Revenue[0], o.Revenue[1], o.Welfare = math.NaN(), math.NaN(), math.NaN()
	return o
}

func (o DuopolyOutcome) subsidies() []float64 { return o.S }
func (o DuopolyOutcome) key() string          { return priceKey(o.P[:]) }
func (o DuopolyOutcome) objectives() (float64, float64) {
	return o.Revenue[0] + o.Revenue[1], o.Welfare
}

// Duopoly opens a two-ISP competition session over the Engine's CP catalog
// and utilization family: capacities mu (the Engine's own µ is not
// consulted — the duopoly splits the access market explicitly), logit price
// sensitivity sigma, and subsidy cap q. The session inherits the Engine's
// Nash scheme, utilization kernel and worker-pool size, so WithSolver,
// WithUtilizationSolver and WithWorkers reach the duopoly end-to-end; the
// hot-path warm kernel is the default here as everywhere. The session keeps
// its own solver telemetry (SolverStats), separate from the Engine's.
func (e *Engine) Duopoly(mu [2]float64, sigma, q float64) (*DuopolySession, error) {
	s := &DuopolySession{}
	if err := s.init(e, sweep.SurfaceDuopoly, mu[:], sigma, q, duopolyOutcome); err != nil {
		return nil, err
	}
	return s, nil
}

// CachedPrices returns the resident cache keys oldest-first — the FIFO
// eviction order: the next insertion past the cache bound evicts the first
// returned pair. Intended for observability and tests; the slice is a
// snapshot the caller owns.
func (s *DuopolySession) CachedPrices() [][2]float64 {
	return cachedAs(&s.sessionCore, func(o DuopolyOutcome) [2]float64 { return o.P })
}

// Solve returns the CP subsidization equilibrium of the duopoly at access
// prices (p1, p2), consulting the cache and warm-starting from the
// session's previous solve.
func (s *DuopolySession) Solve(p1, p2 float64) (DuopolyOutcome, error) {
	return s.SolveCtx(context.Background(), p1, p2)
}

// SolveCtx is Solve with cooperative cancellation: a single solve is one
// cancellation segment, so ctx is checked once on entry — an already
// cancelled context returns ctx.Err() with the session cache and warm
// store untouched, and an uncancelled call is bit-identical to Solve.
func (s *DuopolySession) SolveCtx(ctx context.Context, p1, p2 float64) (DuopolyOutcome, error) {
	return s.solveCtx(ctx, []float64{p1, p2})
}

// PriceEquilibrium solves the two ISPs' price competition on [0, pMax] by
// alternating best responses (maxRounds ≤ 0 selects the default), with the
// CPs re-equilibrating inside every revenue evaluation, and returns the
// equilibrium outcome. It runs entirely on its own workspace and leaves
// the session cache and warm store untouched (pinned by
// TestDuopolySessionPriceEquilibriumIsolated).
func (s *DuopolySession) PriceEquilibrium(pMax float64, maxRounds int) (DuopolyOutcome, error) {
	return s.priceEquilibrium(pMax, maxRounds)
}

// DuopolySweepResult is a solved (p₁, p₂) price surface in row-major order:
// Outcomes[i][j] is the equilibrium at (P1[i], P2[j]). P1 and P2 are the
// session's own copies of the swept grids — later caller mutation of the
// input slices cannot corrupt the result.
type DuopolySweepResult struct {
	P1, P2 []float64
	// Names are the CP names, matching each outcome's S order — the
	// subsidy column labels of the CSV export.
	Names    []string
	Outcomes [][]DuopolyOutcome
	// Workers is the worker-pool size the sweep effectively ran on (the
	// session's WithWorkers setting clamped to the chain count). It is a
	// throughput record only: Outcomes is bit-identical at any value.
	Workers int
	// Chains is the number of independent warm-start chains the snake path
	// was cut into — the sweep's parallelism budget.
	Chains int
}

// SweepPrices solves the CP equilibrium over the Cartesian (p₁, p₂) grid on
// a deterministic worker pool — the N-ISP session's snake-path sweep at
// N = 2, the same traversal scheduler that backs Engine.Sweep. The grid is
// linearized in snake order (consecutive points are always price
// neighbors, including at row turns) and cut into fixed, grid-determined
// segments; each worker owns a private workspace, and within a segment
// both the subsidy profile and the per-network utilization seeds φ chain
// point to point while every segment cold-starts its first point. Results
// are therefore bit-identical at any worker count (WithWorkers is purely a
// throughput knob) and independent of the session's history: unlike Solve,
// the sweep never reads the session cache or warm store. Solved points
// populate the cache afterwards in snake order — under a cache bound the
// sweep's last points stay resident — and the warm store is refreshed from
// the final path point, so follow-up Solve calls continue the chain.
// SweepPrices is SweepPricesCtx under context.Background(): never
// cancelled.
func (s *DuopolySession) SweepPrices(p1Grid, p2Grid []float64) (*DuopolySweepResult, error) {
	return s.SweepPricesCtx(context.Background(), p1Grid, p2Grid)
}

// SweepPricesCtx is SweepPrices with cooperative cancellation at segment
// boundaries: the worker pool polls ctx.Err() once per claimed warm-start
// segment, so an uncancelled run is bit-identical to SweepPrices at any
// worker count, and a cancelled run returns ctx.Err() with the session
// cache and warm store exactly as they were before the call — the fold
// into the session happens only after the whole sweep succeeds. A
// panicking worker likewise surfaces as a *PanicError with nothing folded.
func (s *DuopolySession) SweepPricesCtx(ctx context.Context, p1Grid, p2Grid []float64) (*DuopolySweepResult, error) {
	d, err := s.sweepDense(ctx, [][]float64{p1Grid, p2Grid})
	if err != nil {
		return nil, err
	}
	// Re-slice the flat row-major surface into rows; row i is
	// Outcomes[i][j] = flat[i·len(P2)+j].
	n := len(d.grids[1])
	rows := make([][]DuopolyOutcome, len(d.grids[0]))
	for i := range rows {
		rows[i] = d.outcomes[i*n : (i+1)*n : (i+1)*n]
	}
	return &DuopolySweepResult{
		P1: d.grids[0], P2: d.grids[1], Names: s.names(),
		Outcomes: rows, Workers: d.workers, Chains: d.chains,
	}, nil
}

// ArgmaxTotalRevenue returns the grid outcome maximizing combined ISP
// revenue; ties resolve to the lowest (i, j) index. Outcomes whose combined
// revenue is non-finite are skipped — a NaN at one grid point must not
// poison the maximum by failing every comparison; if every outcome is
// non-finite the first outcome is returned.
func (r *DuopolySweepResult) ArgmaxTotalRevenue() DuopolyOutcome {
	best, bestV := r.Outcomes[0][0], math.Inf(-1)
	for _, row := range r.Outcomes {
		best, bestV = argmaxRevenue(row, best, bestV)
	}
	return best
}

// CSV renders the price surface as one row per grid point in row-major
// order, with per-CP subsidy columns.
func (r *DuopolySweepResult) CSV() string {
	var b strings.Builder
	// Builder writes cannot fail, so the WriteCSV error is structurally nil.
	_ = r.WriteCSV(&b)
	return b.String()
}

// WriteCSV streams the CSV rendering of CSV row by row to w — identical
// bytes with O(row) live memory. The first write error aborts. The columns
// are the N-ISP session CSV's at N = 2.
func (r *DuopolySweepResult) WriteCSV(w io.Writer) error {
	if err := writeSessionCSVHeader(w, 2, r.Names); err != nil {
		return err
	}
	for i := range r.Outcomes {
		for j := range r.Outcomes[i] {
			o := &r.Outcomes[i][j]
			if err := writeSessionCSVRow(w, o.P[:], o.Shares[:], o.Phi[:], o.Revenue[:], []float64{o.Welfare}, o.S); err != nil {
				return err
			}
		}
	}
	return nil
}

// DuopolySweepSegment is one completed chunk of a streamed price sweep: the
// outcomes of the snake-path range [Lo, Hi) in path order, with each
// outcome's row-major rank (i·len(P2)+j). The slices are only valid during
// the emission callback — clone what must be retained.
type DuopolySweepSegment struct {
	Index    int
	Lo, Hi   int
	Outcomes []DuopolyOutcome
	Ranks    []int
}

// DuopolySweepSummary is the constant-memory reduction of a streamed price
// sweep: combined-revenue and welfare accumulators (argmax, min/max/mean,
// WithQuantiles sketches) with the argmax outcomes retained — everything
// ArgmaxTotalRevenue answers, without the outcome matrix.
type DuopolySweepSummary struct {
	P1, P2 []float64
	Names  []string // CP names, matching each outcome's S order
	Chains int
	Points int

	// TotalRevenue folds the combined ISP revenue p₁·Σθ¹ + p₂·Σθ²;
	// Welfare folds Σ v_i·(θ_i¹+θ_i²). Argmax ties resolve to the lowest
	// row-major rank, matching ArgmaxTotalRevenue.
	TotalRevenue SweepAccumulator
	Welfare      SweepAccumulator
	BestRevenue  DuopolyOutcome
	BestWelfare  DuopolyOutcome
}

// SweepPricesStream solves the price plane exactly like SweepPrices — same
// snake path, segment cut, warm chains and per-point solves — but never
// materializes the outcome matrix: completed segments are handed to emit
// (which may be nil) in strict snake order and folded into the returned
// summary, holding O(segment · workers) outcomes live regardless of grid
// size. The summary is bit-identical at any worker count and session
// history. The session is left exactly as SweepPrices leaves it: solved
// points fold into the cache in snake order (under a cache bound the
// sweep's tail stays resident) and the warm store continues from the
// final path point — but only when the whole sweep succeeds. A failed,
// cancelled or panicking sweep leaves the cache and warm store exactly as
// they were before the call: the fold is staged during the sweep and
// committed atomically after the last segment, so a follow-up Solve on a
// failed session is bit-identical to one on a session that never swept.
// SweepPricesStream is SweepPricesStreamCtx under context.Background().
func (s *DuopolySession) SweepPricesStream(p1Grid, p2Grid []float64, emit func(DuopolySweepSegment) error) (*DuopolySweepSummary, error) {
	return s.SweepPricesStreamCtx(context.Background(), p1Grid, p2Grid, emit)
}

// SweepPricesStreamCtx is SweepPricesStream with cooperative cancellation
// at segment boundaries: the ordered pool polls ctx.Err() once per claimed
// segment, an uncancelled run is bit-identical to SweepPricesStream at any
// worker count, and a cancelled run returns ctx.Err() with no further emit
// calls and the session cache and warm store untouched.
func (s *DuopolySession) SweepPricesStreamCtx(ctx context.Context, p1Grid, p2Grid []float64, emit func(DuopolySweepSegment) error) (*DuopolySweepSummary, error) {
	st, err := s.sweepStream(ctx, [][]float64{p1Grid, p2Grid}, func(c, lo, hi int, outs []DuopolyOutcome, ranks []int) error {
		if emit == nil {
			return nil
		}
		return emit(DuopolySweepSegment{Index: c, Lo: lo, Hi: hi, Outcomes: outs, Ranks: ranks})
	})
	if err != nil {
		return nil, err
	}
	return &DuopolySweepSummary{
		P1: st.grids[0], P2: st.grids[1], Names: s.names(), Chains: st.chains, Points: st.points,
		TotalRevenue: st.revenue, Welfare: st.welfare,
		BestRevenue: st.bestRevenue, BestWelfare: st.bestWelfare,
	}, nil
}

// DuopolyAdaptiveResult is the sparse result of a coarse-to-fine price
// sweep: only the outcomes the refinement visited, in deterministic solve
// order, plus the argmax under the session's objective.
type DuopolyAdaptiveResult struct {
	P1, P2    []float64
	Names     []string
	Objective string

	// Outcomes are the solved points in deterministic solve order; Ranks
	// give each outcome's row-major index (i·len(P2)+j) in the matrix a
	// dense SweepPrices would build.
	Outcomes []DuopolyOutcome
	Ranks    []int

	// Best is the argmax outcome under Objective; BestRank its row-major
	// rank (−1 when no outcome had a finite objective).
	Best     DuopolyOutcome
	BestRank int

	Solved int // len(Outcomes)
	Dense  int // points a dense SweepPrices would have solved
	Rounds int // refinement rounds after the coarse stage
	Cells  int // cells subdivided
}

// SweepPricesAdaptive locates the price plane's argmax — combined ISP
// revenue by default, welfare under WithRefineObjective — coarse-to-fine:
// a coarse price lattice is solved first and only the highest-ranked cells
// are recursively subdivided through warm chains, under the Engine's
// WithRefineBudget (default 40% of the dense grid) and WithRefineDepth.
// The refinement trajectory is deterministic at any worker count. Unlike
// SweepPrices, the session cache and warm store are left untouched: the
// refinement's chains jump around the plane, and folding them in would
// make the session's warm chain depend on the refinement trajectory.
// SweepPricesAdaptive is SweepPricesAdaptiveCtx under context.Background().
func (s *DuopolySession) SweepPricesAdaptive(p1Grid, p2Grid []float64) (*DuopolyAdaptiveResult, error) {
	return s.SweepPricesAdaptiveCtx(context.Background(), p1Grid, p2Grid)
}

// SweepPricesAdaptiveCtx is SweepPricesAdaptive with cooperative
// cancellation: ctx is polled between refinement rounds and at every
// chain-segment boundary inside each round's pool. An uncancelled run is
// bit-identical to SweepPricesAdaptive; a cancelled one returns ctx.Err()
// (the session was untouched either way).
func (s *DuopolySession) SweepPricesAdaptiveCtx(ctx context.Context, p1Grid, p2Grid []float64) (*DuopolyAdaptiveResult, error) {
	a, err := s.sweepAdaptive(ctx, [][]float64{p1Grid, p2Grid})
	if err != nil {
		return nil, err
	}
	return &DuopolyAdaptiveResult{
		P1: a.grids[0], P2: a.grids[1], Names: s.names(), Objective: a.objective,
		Outcomes: a.outcomes, Ranks: a.ranks, Best: a.best, BestRank: a.bestRank,
		Solved: a.solved, Dense: a.dense, Rounds: a.rounds, Cells: a.cells,
	}, nil
}
