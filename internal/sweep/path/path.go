// Package path is the deterministic grid-traversal scheduler behind the
// repository's parameter sweeps. It owns the three pieces that make a
// multi-worker sweep bit-identical at any worker count, factored out of the
// (p, q, µ) sweep so the duopoly's (p₁, p₂) price plane — and any future
// grid — can run on the same machinery:
//
//   - snake linearization: a Cartesian grid of any rank is walked in
//     boustrophedon order — each axis reverses direction whenever the
//     enclosing row index along the path is odd — so consecutive path
//     positions always differ by one step in exactly one coordinate,
//     including across row and slab boundaries. Warm-start chains along the
//     path therefore always seed from a grid neighbor.
//   - fixed segmentation: the path is cut into near-equal segments of at
//     most a requested length. The cut depends only on the grid and the
//     requested length — never on the worker count — so the warm-start
//     chains (each segment cold-starts its first point) are the same for
//     every schedule.
//   - a deterministic worker pool: workers claim whole segments, never
//     individual points, and each worker owns private state (workspaces,
//     warm buffers). Because segments write disjoint result ranges and
//     chains never cross a segment boundary, the solved surface is
//     bit-identical for any worker count; the pool only changes wall clock.
package path

import (
	"context"
	"sync"
	"sync/atomic"
)

// DefaultSegmentLen is the warm-start chain length selected when New is
// given a non-positive segment length: 16 points amortize each chain's one
// cold solve to ~6% while typical figure-resolution grids still split into
// enough independent units to feed a worker pool.
const DefaultSegmentLen = 16

// Plan is a snake linearization of a Cartesian grid cut into fixed
// segments. The zero value is an empty plan; build one with New.
type Plan struct {
	dims   []int // axis sizes, outermost (slowest-varying) first
	n      int   // total grid points
	segLen int   // balanced segment length
	chains int   // number of segments
}

// New plans the snake traversal of a grid with the given axis sizes
// (outermost first; the innermost axis is the one consecutive path points
// step along within a row). segLen bounds the warm-start chain length;
// non-positive selects DefaultSegmentLen. The requested length is
// rebalanced over the resulting segment count (ceil division both ways, so
// only the final segment can be shorter) — a function of the grid alone,
// which is what keeps the decomposition worker-count invariant.
func New(dims []int, segLen int) Plan {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n <= 0 {
		return Plan{dims: append([]int(nil), dims...)}
	}
	if segLen <= 0 {
		segLen = DefaultSegmentLen
	}
	if segLen > n {
		segLen = n
	}
	chains := (n + segLen - 1) / segLen
	segLen = (n + chains - 1) / chains
	return Plan{dims: append([]int(nil), dims...), n: n, segLen: segLen, chains: chains}
}

// Len returns the number of grid points on the path.
func (pl Plan) Len() int { return pl.n }

// Chains returns the number of independent warm-start segments.
func (pl Plan) Chains() int { return pl.chains }

// Segment returns the half-open path range [lo, hi) of segment c.
func (pl Plan) Segment(c int) (lo, hi int) {
	lo = c * pl.segLen
	hi = lo + pl.segLen
	if hi > pl.n {
		hi = pl.n
	}
	return lo, hi
}

// Segments returns every segment's half-open path range [lo, hi) in segment
// order — the shared alternative to hand-rolling an index loop over Chains()
// and calling Segment(c). Only the final range can be shorter than the rest.
func (pl Plan) Segments() [][2]int {
	out := make([][2]int, pl.chains)
	for c := range out {
		lo, hi := pl.Segment(c)
		out[c] = [2]int{lo, hi}
	}
	return out
}

// Coords writes the grid indices of path position k into idx (one entry
// per axis, outermost first). Axis j runs forward when the enclosing row
// index along the path — the mixed-radix quotient above digit j — is even,
// and backward when it is odd; that alternation is what makes positions k
// and k+1 grid neighbors.
func (pl Plan) Coords(k int, idx []int) {
	q := k
	for j := len(pl.dims) - 1; j >= 0; j-- {
		d := pl.dims[j]
		digit := q % d
		q /= d
		if q%2 == 1 {
			digit = d - 1 - digit
		}
		idx[j] = digit
	}
}

// Index returns the row-major rank of the grid indices idx — the
// deterministic result-table position of a point, independent of where the
// snake path visits it.
func (pl Plan) Index(idx []int) int {
	r := 0
	for j, d := range pl.dims {
		r = r*d + idx[j]
	}
	return r
}

// Run executes the plan's segments on a deterministic worker pool. Each
// worker calls newWorker once for its private state (workspaces, warm
// buffers) and runSegment for every segment it claims, with the segment's
// half-open path range [lo, hi). Segments are claimed dynamically — which
// worker solves which segment varies run to run — but every segment
// cold-starts and writes results only for its own path positions, so the
// assembled output is identical for any worker count. workers is clamped
// to [1, Chains()]. The first error stops the remaining segments and is
// returned. Run is RunCtx under context.Background(): never cancelled.
func Run[W any](pl Plan, workers int, newWorker func() W, runSegment func(w W, lo, hi int) error) error {
	return RunCtx(context.Background(), pl, workers, newWorker, runSegment)
}

// RunCtx is Run with cooperative cancellation: ctx.Err() is polled once per
// segment claim — never inside a segment — so the solve hot path stays
// zero-alloc and an uncancelled run is bit-identical to Run. When ctx is
// cancelled the pool stops claiming segments, lets in-flight segments finish
// their current chain, and returns ctx.Err() (unless a segment error arrived
// first). A panicking runSegment is recovered at the segment boundary,
// converted to a *PanicError, and cancels the remaining segments like any
// other first error. A cancel that arrives after every segment has passed
// its claim poll is not reported: every segment ran, the result is whole,
// and RunCtx returns nil.
func RunCtx[W any](ctx context.Context, pl Plan, workers int, newWorker func() W, runSegment func(w W, lo, hi int) error) error {
	if pl.n == 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > pl.chains {
		workers = pl.chains
	}
	ranges := pl.Segments()
	segs := make(chan int)
	var failed atomic.Bool
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker construction runs under the same guard as segments: a
			// panicking newWorker (corrupt system state, impossible grid)
			// surfaces as a *PanicError with Segment -1 instead of killing
			// the process. The failed worker keeps draining the segment
			// channel so the main send loop never blocks on a dead pool.
			var st W
			if err := guard(workerSegment, func() error { st = newWorker(); return nil }); err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				for range segs {
				}
				return
			}
			for c := range segs {
				if failed.Load() {
					continue
				}
				if err := ctx.Err(); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					continue
				}
				lo, hi := ranges[c][0], ranges[c][1]
				if err := guard(c, func() error { return runSegment(st, lo, hi) }); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
				}
			}
		}()
	}
	for c := 0; c < pl.chains; c++ {
		segs <- c
	}
	close(segs)
	wg.Wait()
	return firstErr
}

// Lead returns the reorder window RunOrdered runs under for the given worker
// count: the maximum number of segments simultaneously claimed-but-unemitted.
// Callers that stage per-segment result buffers need exactly this many slots
// (index them c % Lead): two live segments can never collide in the ring,
// because every live segment index lies within one window of the emission
// cursor. Two windows of the worker count keep the pool busy while the
// emitter catches up, without growing with the grid.
func Lead(workers, chains int) int {
	if workers < 1 {
		workers = 1
	}
	lead := 2 * workers
	if lead > chains {
		lead = chains
	}
	if lead < 1 {
		lead = 1
	}
	return lead
}

// RunOrdered is Run with deterministic in-order segment emission: after a
// segment's runSegment returns, emit is called with the same range, strictly
// in segment order (0, 1, 2, ...) and serialized — segments completed out of
// order are parked until their predecessors emit. A worker may run at most
// Lead(workers, Chains()) segments ahead of the emission cursor, so a
// caller staging results in per-segment buffers holds O(workers) segments
// live regardless of grid size — the memory contract behind streaming
// sweeps. Both runSegment and emit errors cancel the remaining segments;
// the first error is returned. Like Run, results are bit-identical at any
// worker count: the schedule only changes wall clock, never the segment
// decomposition or the emission order. RunOrdered is RunOrderedCtx under
// context.Background(): never cancelled.
func RunOrdered[W any](pl Plan, workers int, newWorker func() W, runSegment func(w W, c, lo, hi int) error, emit func(c, lo, hi int) error) error {
	return RunOrderedCtx(context.Background(), pl, workers, newWorker, runSegment, emit)
}

// RunOrderedCtx is RunOrdered with cooperative cancellation at segment
// claims and emissions: each claim checks ctx.Err() before waiting on the
// lead window, and each emission re-checks it, so a cancelled context stops
// new segments, wakes parked workers, suppresses every not-yet-emitted
// segment's emit — including segments other workers already finished — and
// returns ctx.Err() (unless a runSegment/emit error arrived first). Unlike
// RunCtx, a cancel after the last claim still fails the run while any emit
// is outstanding. In-flight segments finish their chain — cancellation is
// segment-granular, keeping the solve hot path zero-alloc and an
// uncancelled run bit-identical to RunOrdered. Panics in runSegment or emit
// are recovered at the boundary as *PanicError and cancel the remaining
// segments like any other first error.
func RunOrderedCtx[W any](ctx context.Context, pl Plan, workers int, newWorker func() W, runSegment func(w W, c, lo, hi int) error, emit func(c, lo, hi int) error) error {
	if pl.n == 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > pl.chains {
		workers = pl.chains
	}
	lead := Lead(workers, pl.chains)
	ranges := pl.Segments()

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     int                  // emission cursor: first segment not yet emitted
		done     = make([]bool, lead) // completion ring for segments [next, next+lead)
		failed   bool
		firstErr error
	)
	fail := func(err error) {
		if !failed {
			failed, firstErr = true, err
		}
	}

	segs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Same construction guard as RunCtx: a panicking newWorker
			// fails the run with a *PanicError (Segment -1), wakes parked
			// workers, and drains the channel so the send loop finishes.
			var st W
			if cerr := guard(workerSegment, func() error { st = newWorker(); return nil }); cerr != nil {
				mu.Lock()
				fail(cerr)
				cond.Broadcast()
				mu.Unlock()
				for range segs {
				}
				return
			}
			for c := range segs {
				mu.Lock()
				if cerr := ctx.Err(); cerr != nil && !failed {
					fail(cerr)
					cond.Broadcast()
				}
				for c >= next+lead && !failed {
					cond.Wait()
				}
				bad := failed
				mu.Unlock()
				if bad {
					continue
				}
				lo, hi := ranges[c][0], ranges[c][1]
				err := guard(c, func() error { return runSegment(st, c, lo, hi) })
				mu.Lock()
				if err != nil {
					fail(err)
				}
				if !failed {
					done[c%lead] = true
					// Drain every consecutively completed segment. Emission
					// runs under the lock: serialized, in order, and
					// happens-after the worker's buffer writes. ctx is
					// re-polled before each emission, so a cancel from an
					// emit callback (or from outside) suppresses segments
					// that other workers already finished.
					for next < pl.chains && done[next%lead] {
						if cerr := ctx.Err(); cerr != nil {
							fail(cerr)
							break
						}
						done[next%lead] = false
						n := next
						//lint:ignore locksafe mu is function-local to this pool, not a session lock: serialized under-lock emission IS the ordered-emission happens-before contract, and emit has no path back to mu
						if e := guard(n, func() error { return emit(n, ranges[n][0], ranges[n][1]) }); e != nil {
							fail(e)
							break
						}
						next++
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	for c := 0; c < pl.chains; c++ {
		segs <- c
	}
	close(segs)
	wg.Wait()
	return firstErr
}
