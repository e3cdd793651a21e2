package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"neutralnet"
	"neutralnet/internal/experiments"
)

// Every workload runs closed loop from one process at the Engine's default
// worker count (GOMAXPROCS).

// serialOps is a workload whose operations run one after another.
type serialOps interface {
	// op runs operation i under the op span parent and returns the grid
	// points it answered.
	op(i int, tr *tracer, parent int) (points int, err error)
	// check verifies the output of the op just run.
	check(i int) error
}

// serialLoop runs ops back to back until d has elapsed. Each op is timed
// and metered alone; its output is checked outside the metered region. The
// throughput time axis is the ops' own time laid end to end.
func serialLoop(d time.Duration, tr *tracer, s serialOps) *tally {
	t := &tally{}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		var m meter
		start := t.busy
		m.start()
		id := tr.begin("op", -1, i)
		pts, err := s.op(i, tr, id)
		tr.end(id)
		wall := m.stop(t)
		t.attempted++
		t.lat = append(t.lat, ms(wall))
		if err == nil {
			err = s.check(i)
		}
		if err != nil {
			t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			continue
		}
		t.points += pts
		t.spans = append(t.spans, opSpan{start.Seconds(), t.busy.Seconds(), pts})
	}
	return t
}

// jittered returns n increasing points on [lo, hi] with each interior point
// moved by up to ±frac of the spacing; a nil rng gives the uniform grid.
//
// Set-up's warm-up operation runs on the uniform (nil rng) inputs, so
// setup_s measures the same work for every seed.
func jittered(rng *rand.Rand, lo, hi float64, n int, frac float64) []float64 {
	g := neutralnet.UniformGrid(lo, hi, n)
	if rng == nil {
		return g
	}
	h := (hi - lo) / float64(n-1)
	for i := 1; i < n-1; i++ {
		g[i] += (2*rng.Float64() - 1) * frac * h
	}
	return g
}

// twoCPSystem is the competition workloads' catalog: two CPs whose
// throughput curves have distinct β, so no two CPs share a class.
func twoCPSystem() *neutralnet.System {
	return neutralnet.NewSystem(1,
		neutralnet.NewCP("video", 4, 2, 1.0),
		neutralnet.NewCP("social", 2, 4, 0.5),
	)
}

// Session parameters of the competition workloads.
const (
	sigma = 3.0 // logit price sensitivity of ISP choice
	capQ  = 1.0 // subsidy cap
)

var (
	oligoMu = []float64{0.4, 0.3, 0.3}
	duoMu   = [2]float64{0.5, 0.5}
)

// --- surface ----------------------------------------------------------------

const surfaceGrids = 8

// surfaceGrid is a 25×5×4 (p, q, µ) grid. q stays clear of 0, where the
// KKT box degenerates to a point.
func surfaceGrid(rng *rand.Rand) neutralnet.Grid {
	return neutralnet.Grid{
		P:  jittered(rng, 0.05, 2, 25, 0.3),
		Q:  jittered(rng, 0.25, 2, 5, 0.3),
		Mu: jittered(rng, 0.6, 1.6, 4, 0.3),
	}
}

// surfaceInputs returns the seed's jittered grids.
func surfaceInputs(seed int64) []neutralnet.Grid {
	rng := rand.New(rand.NewSource(seed))
	gs := make([]neutralnet.Grid, surfaceGrids)
	for k := range gs {
		gs[k] = surfaceGrid(rng)
	}
	return gs
}

type surfaceBench struct {
	seed  int64
	sys   *neutralnet.System
	eng   *neutralnet.Engine
	grids []neutralnet.Grid
	rng   *rand.Rand // check samples
	res   *neutralnet.SweepResult

	// Tallies of the checked ops, read by layers after a traced run.
	iters, points, chains int
}

func setupSurface(seed int64) (bench, error) {
	b := &surfaceBench{
		seed:  seed,
		sys:   experiments.EightCPGrid(),
		grids: surfaceInputs(seed),
		rng:   rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
	eng, err := neutralnet.NewEngine(b.sys)
	if err != nil {
		return nil, err
	}
	b.eng = eng
	if _, err := eng.Sweep(surfaceGrid(nil)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *surfaceBench) run(d time.Duration, tr *tracer) *tally {
	b.iters, b.points, b.chains = 0, 0, 0
	return serialLoop(d, tr, b)
}

func (b *surfaceBench) op(i int, tr *tracer, parent int) (int, error) {
	id := tr.begin("engine.Sweep", parent, i)
	res, err := b.eng.Sweep(b.grids[i%len(b.grids)])
	tr.end(id)
	b.res = res
	if err != nil {
		return 0, err
	}
	return len(res.Points), nil
}

// surfaceSamples is how many random points per op are KKT-checked besides
// the revenue argmax.
const surfaceSamples = 2

func (b *surfaceBench) check(i int) error {
	g := b.grids[i%len(b.grids)]
	samples := make([]int, surfaceSamples)
	for k := range samples {
		samples[k] = b.rng.Intn(g.Size())
	}
	if err := checkSurface(b.eng, b.res, g.Size(), samples); err != nil {
		return err
	}
	for _, pt := range b.res.Points {
		b.iters += pt.Eq.Iterations
	}
	b.points += len(b.res.Points)
	b.chains += b.res.Chains
	return nil
}

// --- oligopoly --------------------------------------------------------------

const oligoCubes = 8

// oligopolyCube is an 8×8×6 price hypercube.
func oligopolyCube(rng *rand.Rand) [][]float64 {
	return [][]float64{
		jittered(rng, 0.6, 1.4, 8, 0.3),
		jittered(rng, 0.6, 1.4, 8, 0.3),
		jittered(rng, 0.7, 1.3, 6, 0.3),
	}
}

// oligopolyInputs returns the seed's jittered hypercubes.
func oligopolyInputs(seed int64) [][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	cs := make([][][]float64, oligoCubes)
	for k := range cs {
		cs[k] = oligopolyCube(rng)
	}
	return cs
}

type oligopolyBench struct {
	seed  int64
	eng   *neutralnet.Engine
	cubes [][][]float64
	sum   *neutralnet.OligopolySweepSummary
	emit  func(neutralnet.OligopolySweepSegment) error // onSegment, bound once

	// Per-op emission state. Emissions are serialized in segment order.
	emitted int
	tr      *tracer
	call    int
	opID    int
	prev    time.Time

	// Traced-run tallies.
	gaps, opens []float64
	segs        int
	ops         int
}

func setupOligopoly(seed int64) (bench, error) {
	b := &oligopolyBench{seed: seed, cubes: oligopolyInputs(seed)}
	b.emit = b.onSegment
	eng, err := neutralnet.NewEngine(twoCPSystem())
	if err != nil {
		return nil, err
	}
	b.eng = eng
	if _, err := b.sweep(eng, oligopolyCube(nil), 0, nil, -1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *oligopolyBench) run(d time.Duration, tr *tracer) *tally {
	b.gaps, b.opens, b.segs, b.ops = nil, nil, 0, 0
	return serialLoop(d, tr, b)
}

func (b *oligopolyBench) op(i int, tr *tracer, parent int) (int, error) {
	return b.sweep(b.eng, b.cubes[i%len(b.cubes)], i, tr, parent)
}

// sweep opens a session on eng and streams the price hypercube through it.
func (b *oligopolyBench) sweep(eng *neutralnet.Engine, cube [][]float64, i int, tr *tracer, parent int) (int, error) {
	b.sum = nil
	t0 := time.Now()
	id := tr.add("engine.Oligopoly", t0, parent, i)
	s, err := eng.Oligopoly(oligoMu, sigma, capQ)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		b.opens = append(b.opens, us(time.Since(t0)))
	}
	b.emitted, b.tr, b.opID = 0, tr, i
	b.call = tr.begin("session.SweepPricesStream", parent, i)
	b.prev = time.Now()
	sum, err := s.SweepPricesStream(cube, b.emit)
	tr.end(b.call)
	if err != nil {
		return 0, err
	}
	b.sum = sum
	return sum.Points, nil
}

// onSegment is the stream's emit callback: it counts the emitted points
// and, when traced, records the segment as the span since the previous
// emission.
func (b *oligopolyBench) onSegment(seg neutralnet.OligopolySweepSegment) error {
	b.emitted += len(seg.Outcomes)
	if b.tr != nil {
		now := time.Now()
		b.tr.finish(b.tr.add("segment", b.prev, b.call, b.opID), now)
		b.gaps = append(b.gaps, ms(now.Sub(b.prev)))
		b.segs++
		b.prev = now
	}
	return nil
}

func (b *oligopolyBench) check(i int) error {
	c := b.cubes[i%len(b.cubes)]
	if err := checkOligopoly(b.sum, len(c[0])*len(c[1])*len(c[2]), b.emitted); err != nil {
		return err
	}
	b.ops++
	return nil
}

// --- duopoly ----------------------------------------------------------------

const duoPlanes = 8

// duopolyPlane is a 33×33 price plane on about [0.5, 1.5]², its ends moved
// by up to ±0.05.
func duopolyPlane(rng *rand.Rand) [2][]float64 {
	var pl [2][]float64
	for a := range pl {
		lo, hi := 0.5, 1.5
		if rng != nil {
			lo += 0.1 * (rng.Float64() - 0.5)
			hi += 0.1 * (rng.Float64() - 0.5)
		}
		pl[a] = jittered(rng, lo, hi, 33, 0.3)
	}
	return pl
}

// duopolyInputs returns the seed's small set of jittered planes.
func duopolyInputs(seed int64) [][2][]float64 {
	rng := rand.New(rand.NewSource(seed))
	ps := make([][2][]float64, duoPlanes)
	for k := range ps {
		ps[k] = duopolyPlane(rng)
	}
	return ps
}

type duopolyBench struct {
	seed   int64
	eng    *neutralnet.Engine
	planes [][2][]float64
	ref    []int // dense argmax rank per plane
	res    []*neutralnet.DuopolyAdaptiveResult

	// Traced-run tallies.
	opens, solvedFrac, rounds []float64
}

func setupDuopoly(seed int64) (bench, error) {
	b := &duopolyBench{seed: seed, planes: duopolyInputs(seed)}
	eng, err := neutralnet.NewEngine(twoCPSystem())
	if err != nil {
		return nil, err
	}
	b.eng = eng
	if _, err := b.sweep([][2][]float64{duopolyPlane(nil)}, 0, nil, -1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// reference solves every plane densely once, for the argmax check.
func (b *duopolyBench) reference() error {
	b.ref = make([]int, len(b.planes))
	for k, pl := range b.planes {
		s, err := b.eng.Duopoly(duoMu, sigma, capQ)
		if err != nil {
			return err
		}
		dense, err := s.SweepPrices(pl[0], pl[1])
		if err != nil {
			return err
		}
		b.ref[k] = denseArgmaxRank(dense)
	}
	return nil
}

func (b *duopolyBench) run(d time.Duration, tr *tracer) *tally {
	b.opens, b.solvedFrac, b.rounds = nil, nil, nil
	return serialLoop(d, tr, b)
}

// An operation opens a session and locates the argmax of every plane of
// the seed: one 33×33 plane alone is a ~14 ms operation, short enough that
// a stall of the host lifts a tenth of them and swings the p90.
func (b *duopolyBench) op(i int, tr *tracer, parent int) (int, error) {
	return b.sweep(b.planes, i, tr, parent)
}

// sweep opens a session and runs the coarse-to-fine sweep of each plane.
func (b *duopolyBench) sweep(planes [][2][]float64, i int, tr *tracer, parent int) (int, error) {
	b.res = b.res[:0]
	t0 := time.Now()
	id := tr.add("engine.Duopoly", t0, parent, i)
	s, err := b.eng.Duopoly(duoMu, sigma, capQ)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		b.opens = append(b.opens, us(time.Since(t0)))
	}
	points := 0
	for _, pl := range planes {
		id = tr.begin("session.SweepPricesAdaptive", parent, i)
		res, err := s.SweepPricesAdaptive(pl[0], pl[1])
		tr.end(id)
		if err != nil {
			return 0, err
		}
		b.res = append(b.res, res)
		points += res.Dense
	}
	return points, nil
}

func (b *duopolyBench) check(int) error {
	for k, res := range b.res {
		if err := checkDuopoly(res, b.ref[k]); err != nil {
			return err
		}
	}
	for _, res := range b.res {
		b.solvedFrac = append(b.solvedFrac, float64(res.Solved)/float64(res.Dense))
		b.rounds = append(b.rounds, float64(res.Rounds))
	}
	return nil
}

// --- queries ----------------------------------------------------------------

// Query mix: set-up asks the client's hot keys once; the measured stream
// then runs blocks of queryBlock queries with queryRepeats repeats of the
// client's hot keys (round robin, so every hot key is re-asked within a
// bounded number of queries and stays resident in the LRU cache) at seeded
// positions, the rest fresh points near a hot key.
//
// One operation is a burst of queryBurst queries, whole blocks, so every
// operation asks the same mix. A single query's latency spreads fivefold
// (cache hits, fresh solves of 2 to 6 iterations), and a host stall that
// lifts a few mid-range queries into the tail moved the median query by a
// fifth between runs of the same inputs; a burst's latency is a sum of
// queryBurst such draws.
//
// One client drives the Engine. With two, one per vCPU of a 2-vCPU host,
// the median burst moved up to 1.3 times as much as the CPU time per query
// when the host's speed changed; with one it moves in proportion, and the
// Engine's cache history, hence every solve's iteration count, is the same
// on every run of a seed.
const (
	queryHot     = 32
	queryBlock   = 5
	queryRepeats = 1
	queryBurst   = 4 * queryBlock
	// queryKKTEvery: one fresh answer in this many is KKT-checked. It is
	// above a burst's fresh queries, so a burst has at most one sample.
	queryKKTEvery = 32
)

type key struct{ p, q, mu float64 }

// query is one request: a key, and which hot key it repeats (-1 for a
// fresh point). anchor is the hot key a fresh point was drawn near.
type query struct {
	k      key
	hot    int
	anchor key
}

// client is the closed-loop caller with its seeded query stream.
type client struct {
	rng    *rand.Rand
	hot    []key
	n      int
	repeat [queryBlock]bool
	rr     int

	first [queryHot]neutralnet.Equilibrium // first answer per hot key

	// Per-phase records.
	lat, hitLat, missLat, missIters []float64
	spans                           []opSpan
	kkt                             []answer // sampled fresh answers
	attempted, failed, answered     int
	fresh                           int
}

type answer struct {
	q  query
	eq neutralnet.Equilibrium
}

// newClient draws the client's hot keys stratified over the key box: one
// key at a seeded position in each of the 4×4×2 (p, q, µ) cells, so every
// seed covers the box alike and the workload's cost mix hardly depends on
// the seed.
func newClient(seed int64) *client {
	c := &client{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < queryHot; i++ {
		pi, qi, mi := i%4, (i/4)%4, i/16
		c.hot = append(c.hot, key{
			p:  0.4 + 0.3*(float64(pi)+c.rng.Float64()),
			q:  0.3 + 0.35*(float64(qi)+c.rng.Float64()),
			mu: 0.7 + 0.35*(float64(mi)+c.rng.Float64()),
		})
	}
	return c
}

// next draws the client's next query.
func (c *client) next() query {
	pos := c.n % queryBlock
	c.n++
	if pos == 0 {
		for i := range c.repeat {
			c.repeat[i] = i < queryRepeats
		}
		c.rng.Shuffle(queryBlock, func(i, j int) { c.repeat[i], c.repeat[j] = c.repeat[j], c.repeat[i] })
	}
	if c.repeat[pos] {
		h := c.rr % queryHot
		c.rr++
		return query{k: c.hot[h], hot: h}
	}
	a := c.hot[c.rng.Intn(queryHot)]
	return query{
		k: key{
			p:  a.p + 0.04*(2*c.rng.Float64()-1),
			q:  a.q + 0.04*(2*c.rng.Float64()-1),
			mu: a.mu + 0.03*(2*c.rng.Float64()-1),
		},
		hot:    -1,
		anchor: a,
	}
}

// loop runs the client's closed loop of bursts until deadline. Each answer
// is checked as it arrives (a repeat must be bitwise equal to its key's
// first answer); every queryKKTEvery-th fresh answer is kept for a KKT
// check after the phase.
func (c *client) loop(eng *neutralnet.Engine, origin, deadline time.Time, tr *tracer) {
	for op := 0; time.Now().Before(deadline); op++ {
		t0 := time.Now()
		id := tr.add("op", t0, -1, op)
		err := c.burst(eng, tr, id, op)
		now := time.Now()
		tr.finish(id, now)
		c.attempted++
		c.lat = append(c.lat, ms(now.Sub(t0)))
		if err != nil {
			c.failed++
			fmt.Fprintf(os.Stderr, "perfbench: query: %v\n", err)
			continue
		}
		c.answered += queryBurst
		c.spans = append(c.spans, opSpan{t0.Sub(origin).Seconds(), now.Sub(origin).Seconds(), queryBurst})
	}
}

// burst asks the client's next queryBurst queries, stopping at the first
// that fails.
func (c *client) burst(eng *neutralnet.Engine, tr *tracer, parent, op int) error {
	for j := 0; j < queryBurst; j++ {
		q := c.next()
		t0 := time.Now()
		call := tr.add("engine.SolveAt", t0, parent, op)
		eq, err := eng.SolveAt(q.k.p, q.k.q, q.k.mu)
		now := time.Now()
		tr.finish(call, now)
		if err == nil && !eq.Converged {
			err = fmt.Errorf("not converged")
		}
		hit := q.hot >= 0
		if err == nil && hit && !sameEquilibrium(eq, c.first[q.hot]) {
			err = fmt.Errorf("cache hit differs from the first answer")
		}
		if err != nil {
			return fmt.Errorf("%+v: %w", q.k, err)
		}
		lat := now.Sub(t0)
		if hit {
			c.hitLat = append(c.hitLat, us(lat))
		} else {
			c.missLat = append(c.missLat, ms(lat))
			c.missIters = append(c.missIters, float64(eq.Iterations))
			if c.fresh++; c.fresh%queryKKTEvery == 0 {
				c.kkt = append(c.kkt, answer{q, eq})
			}
		}
	}
	return nil
}

func (c *client) reset() {
	c.lat = make([]float64, 0, 1<<16)
	c.spans = make([]opSpan, 0, 1<<16)
	c.hitLat, c.missLat, c.missIters, c.kkt = nil, nil, nil, nil
	c.attempted, c.failed, c.answered = 0, 0, 0
}

type queriesBench struct {
	eng    *neutralnet.Engine
	client *client

	// Traced-run tallies.
	stats0, stats1 neutralnet.EngineStats
}

func setupQueries(seed int64) (bench, error) {
	b := &queriesBench{client: newClient(seed)}
	eng, err := neutralnet.NewEngine(experiments.EightCPGrid())
	if err != nil {
		return nil, err
	}
	b.eng = eng
	// Warm-up: every hot key is answered once. These are the first answers
	// the measured cache hits must match bitwise.
	c := b.client
	for h, k := range c.hot {
		eq, err := eng.SolveAt(k.p, k.q, k.mu)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		c.first[h] = eq
	}
	return b, nil
}

func (b *queriesBench) run(d time.Duration, tr *tracer) *tally {
	c := b.client
	c.reset()
	t := &tally{}
	b.stats0 = b.eng.Stats()
	var m meter
	m.start()
	origin := time.Now()
	c.loop(b.eng, origin, origin.Add(d), tr)
	m.stop(t)
	b.stats1 = b.eng.Stats()
	// Fresh answers are KKT-checked after the phase, off the clock.
	for _, a := range c.kkt {
		if err := checkKKT(b.eng, a.q.k.p, a.q.k.q, a.q.k.mu, a.eq); err != nil {
			c.failed++
			c.answered -= queryBurst
			fmt.Fprintf(os.Stderr, "perfbench: query: %v\n", err)
		}
	}
	t.lat, t.spans = c.lat, c.spans
	t.attempted, t.failed, t.points = c.attempted, c.failed, c.answered
	return t
}
