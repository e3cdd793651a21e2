package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"neutralnet"
	"neutralnet/internal/duopoly"
	"neutralnet/internal/econ"
	"neutralnet/internal/game"
	"neutralnet/internal/model"
	"neutralnet/internal/oligopoly"
)

// The traced mode replays a seeded sample of each workload's points through
// the public functions of the deep layers, timing each call alone. The
// replay builds its own games, markets and workspaces; the end-to-end runs
// never see them.

const (
	replayPoints = 32  // sampled points per replay
	warmRepeats  = 4   // warm re-solves per point for the allocation count
	gapRepeats   = 256 // Gap calls per timing (one call is below timer resolution)
	effPairs     = 3   // alternating 1-worker / default-worker op pairs
)

// countingUtil counts Θ evaluations — one per gap evaluation — of the
// utilization map it wraps. Only the replay's copy of a system carries it.
type countingUtil struct {
	econ.Utilization
	n int
}

func (c *countingUtil) Theta(phi, mu float64) float64 {
	c.n++
	return c.Utilization.Theta(phi, mu)
}

// gameSample is a replay point and the neighbouring point whose solved
// profile (and utilization) warm-starts it.
type gameSample struct{ at, prev key }

func sysAt(base *model.System, mu float64) *model.System {
	c := *base
	c.Mu = mu
	return &c
}

func sinceUs(t0 time.Time) float64 { return us(time.Since(t0)) }

// replayGameModel times the game layer (Nash fixed point cold and warm,
// best response, marginal utility) and the model layer (utilization root
// cold and warm, gap evaluation, gap evaluations per root) at each sample.
// opts is the workload's per-solve configuration.
func replayGameModel(base *model.System, pts []gameSample, opts game.Options, m map[string]float64) error {
	var nashCold, nashWarm, itCold, itWarm, br, marg []float64
	var rootCold, rootWarm, gapNs, evCold, evWarm []float64
	var allocs uint64
	solves := 0
	ws := game.NewWorkspace()
	mws := model.NewWorkspace()
	if err := mws.SetUtilSolver(model.UtilBrentWarm); err != nil {
		return err
	}
	cold := opts
	cold.Initial = nil
	sink := 0.0
	for _, pt := range pts {
		sysPrev := sysAt(base, pt.prev.mu)
		gPrev, err := game.New(sysPrev, pt.prev.p, pt.prev.q)
		if err != nil {
			return err
		}
		eq, err := gPrev.SolveNashWS(ws, cold)
		if err != nil {
			return fmt.Errorf("game: predecessor %+v: %w", pt.prev, err)
		}
		sPrev := append([]float64(nil), eq.S...)
		mPrev := append([]float64(nil), eq.State.M...)

		sys := sysAt(base, pt.at.mu)
		g, err := game.New(sys, pt.at.p, pt.at.q)
		if err != nil {
			return err
		}
		t0 := time.Now()
		eq, err = g.SolveNashWS(ws, cold)
		nashCold = append(nashCold, sinceUs(t0))
		if err != nil {
			return fmt.Errorf("game: cold %+v: %w", pt.at, err)
		}
		itCold = append(itCold, float64(eq.Iterations))
		warm := opts
		warm.Initial = sPrev
		t0 = time.Now()
		eq, err = g.SolveNashWS(ws, warm)
		nashWarm = append(nashWarm, sinceUs(t0))
		if err != nil {
			return fmt.Errorf("game: warm %+v: %w", pt.at, err)
		}
		itWarm = append(itWarm, float64(eq.Iterations))
		s := append([]float64(nil), eq.S...)
		mAt := append([]float64(nil), eq.State.M...)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < warmRepeats; r++ {
			if _, err := g.SolveNashWS(ws, warm); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		solves += warmRepeats

		for i := range s {
			t0 = time.Now()
			_, err := g.BestResponseWS(ws, i, s)
			br = append(br, sinceUs(t0))
			if err != nil {
				return err
			}
			t0 = time.Now()
			_, err = g.MarginalUtility(i, s)
			marg = append(marg, sinceUs(t0))
			if err != nil {
				return err
			}
		}

		t0 = time.Now()
		phi, err := sys.SolveUtilization(mAt)
		rootCold = append(rootCold, sinceUs(t0))
		if err != nil {
			return err
		}
		if err := warmRoot(mws, sysPrev, mPrev, sys, mAt, &rootWarm); err != nil {
			return err
		}
		t0 = time.Now()
		for r := 0; r < gapRepeats; r++ {
			sink += sys.Gap(phi, mAt)
		}
		gapNs = append(gapNs, float64(time.Since(t0).Nanoseconds())/gapRepeats)

		cnt := &countingUtil{Utilization: sys.Util}
		counted := *sys
		counted.Util = cnt
		if _, err := counted.SolveUtilization(mAt); err != nil {
			return err
		}
		evCold = append(evCold, float64(cnt.n))
		cnt.n = 0
		if err := warmRoot(mws, sysPrev, mPrev, &counted, mAt, nil); err != nil {
			return err
		}
		evWarm = append(evWarm, float64(cnt.n))
	}
	if !finite(sink) {
		return fmt.Errorf("model: non-finite gap")
	}
	m["game.nash_cold_us_p50"] = median(nashCold)
	m["game.nash_warm_us_p50"] = median(nashWarm)
	m["game.iters_cold_p50"] = median(itCold)
	m["game.iters_warm_p50"] = median(itWarm)
	m["game.br_us_p50"] = median(br)
	m["game.marginal_us_p50"] = median(marg)
	if solves > 0 {
		m["game.allocs_per_warm_solve"] = float64(allocs) / float64(solves)
	}
	m["model.root_cold_us_p50"] = median(rootCold)
	m["model.root_warm_us_p50"] = median(rootWarm)
	m["model.gap_ns_p50"] = median(gapNs)
	m["model.gap_evals_per_root_cold"] = median(evCold)
	m["model.gap_evals_per_root_warm"] = median(evWarm)
	return nil
}

// warmRoot seeds the warm-Brent workspace with the predecessor's φ (by
// solving its populations on its own system), then solves populations m on
// sys, appending the second solve's time to times when non-nil. A counting
// utilization on sys counts only the second solve: the seed solve runs on
// sysPrev.
func warmRoot(w *model.Workspace, sysPrev *model.System, mPrev []float64, sys *model.System, m []float64, times *[]float64) error {
	w.Bind(sysPrev)
	copy(w.M(), mPrev)
	if _, err := sysPrev.SolveInto(w); err != nil {
		return err
	}
	w.Bind(sys)
	copy(w.M(), m)
	t0 := time.Now()
	_, err := sys.SolveInto(w)
	if times != nil {
		*times = append(*times, sinceUs(t0))
	}
	return err
}

// replayOligopoly times the N-ISP market's CP equilibrium cold and warm
// (from the neighbouring price vector's profile) and its physical solve, on
// a market built exactly as Engine.Oligopoly builds it by default.
func replayOligopoly(sys *model.System, pts [][2][]float64, m map[string]float64) error {
	mk := oligopoly.Market{CPs: sys.CPs, Util: sys.Util, Mu: oligoMu, Sigma: sigma, Q: capQ}
	ws := oligopoly.NewWorkspace()
	var cold, warm, solve []float64
	for _, pt := range pts {
		at, prev := pt[0], pt[1]
		s, _, err := mk.CPEquilibriumWS(ws, prev, nil)
		if err != nil {
			return fmt.Errorf("oligopoly: predecessor %v: %w", prev, err)
		}
		sPrev := append([]float64(nil), s...)
		t0 := time.Now()
		_, _, err = mk.CPEquilibriumWS(ws, at, nil)
		cold = append(cold, sinceUs(t0))
		if err != nil {
			return fmt.Errorf("oligopoly: cold %v: %w", at, err)
		}
		t0 = time.Now()
		s, _, err = mk.CPEquilibriumWS(ws, at, sPrev)
		warm = append(warm, sinceUs(t0))
		if err != nil {
			return fmt.Errorf("oligopoly: warm %v: %w", at, err)
		}
		s = append([]float64(nil), s...)
		t0 = time.Now()
		_, err = mk.Solve(at, s)
		solve = append(solve, sinceUs(t0))
		if err != nil {
			return err
		}
	}
	m["oligopoly.cpeq_cold_us_p50"] = median(cold)
	m["oligopoly.cpeq_warm_us_p50"] = median(warm)
	m["oligopoly.solve_us_p50"] = median(solve)
	return nil
}

// replayDuopoly is replayOligopoly for the two-ISP market Engine.Duopoly
// builds.
func replayDuopoly(sys *model.System, pts [][2][2]float64, m map[string]float64) error {
	mk := duopoly.Market{CPs: sys.CPs, Util: sys.Util, Mu: duoMu, Sigma: sigma, Q: capQ}
	ws := duopoly.NewWorkspace()
	var cold, warm, solve []float64
	for _, pt := range pts {
		at, prev := pt[0], pt[1]
		s, _, err := mk.CPEquilibriumWS(ws, prev, nil)
		if err != nil {
			return fmt.Errorf("duopoly: predecessor %v: %w", prev, err)
		}
		sPrev := append([]float64(nil), s...)
		t0 := time.Now()
		_, _, err = mk.CPEquilibriumWS(ws, at, nil)
		cold = append(cold, sinceUs(t0))
		if err != nil {
			return fmt.Errorf("duopoly: cold %v: %w", at, err)
		}
		t0 = time.Now()
		s, _, err = mk.CPEquilibriumWS(ws, at, sPrev)
		warm = append(warm, sinceUs(t0))
		if err != nil {
			return fmt.Errorf("duopoly: warm %v: %w", at, err)
		}
		s = append([]float64(nil), s...)
		t0 = time.Now()
		_, err = mk.Solve(at, s)
		solve = append(solve, sinceUs(t0))
		if err != nil {
			return err
		}
	}
	m["duopoly.cpeq_cold_us_p50"] = median(cold)
	m["duopoly.cpeq_warm_us_p50"] = median(warm)
	m["duopoly.solve_us_p50"] = median(solve)
	return nil
}

// parallelEff times the same operation k on a 1-worker engine (one) and on
// the workload's engine (many), alternating, and returns
// t(1 worker) / (W · t(W workers)) from the medians, W = GOMAXPROCS.
func parallelEff(one, many func(k int) error) (float64, error) {
	var t1, tw []float64
	for k := 0; k < effPairs; k++ {
		for _, side := range []struct {
			f  func(int) error
			ts *[]float64
		}{{one, &t1}, {many, &tw}} {
			runtime.GC()
			t0 := time.Now()
			if err := side.f(k); err != nil {
				return 0, err
			}
			*side.ts = append(*side.ts, ms(time.Since(t0)))
		}
	}
	return median(t1) / (float64(runtime.GOMAXPROCS(0)) * median(tw)), nil
}

// neighbour returns an index next to i on an axis of n points: the one
// before it, or the one after for the first point.
func neighbour(i, n int) int {
	if i > 0 {
		return i - 1
	}
	if n > 1 {
		return 1
	}
	return 0
}

// --- per-workload layer metrics ---------------------------------------------

func (b *surfaceBench) layers(m map[string]float64) error {
	if b.points > 0 {
		m["sweep.iters_per_point"] = float64(b.iters) / float64(b.points)
		m["sweep.warm_frac"] = float64(b.points-b.chains) / float64(b.points)
	}
	one, err := neutralnet.NewEngine(b.sys, neutralnet.WithWorkers(1))
	if err != nil {
		return err
	}
	eff, err := parallelEff(
		func(k int) error { _, err := one.Sweep(b.grids[k%len(b.grids)]); return err },
		func(k int) error { _, err := b.eng.Sweep(b.grids[k%len(b.grids)]); return err })
	if err != nil {
		return err
	}
	m["path.parallel_eff"] = eff

	rng := rand.New(rand.NewSource(b.seed ^ 0x7e91a7))
	pts := make([]gameSample, replayPoints)
	for k := range pts {
		g := b.grids[rng.Intn(len(b.grids))]
		pi, qi, mi := rng.Intn(len(g.P)), rng.Intn(len(g.Q)), rng.Intn(len(g.Mu))
		pts[k] = gameSample{
			at:   key{g.P[pi], g.Q[qi], g.Mu[mi]},
			prev: key{g.P[neighbour(pi, len(g.P))], g.Q[qi], g.Mu[mi]},
		}
	}
	// Sweeps solve under the warm utilization kernel.
	return replayGameModel(b.sys, pts, game.Options{UtilSolver: model.UtilBrentWarm}, m)
}

func (b *oligopolyBench) layers(m map[string]float64) error {
	m["path.emit_gap_ms_p50"] = quantile(b.gaps, 0.5)
	m["path.emit_gap_ms_p90"] = quantile(b.gaps, 0.9)
	if b.ops > 0 {
		m["path.segments"] = float64(b.segs) / float64(b.ops)
	}
	m["session.open_us_p50"] = median(b.opens)
	one, err := neutralnet.NewEngine(b.eng.System(), neutralnet.WithWorkers(1))
	if err != nil {
		return err
	}
	sweepOn := func(eng *neutralnet.Engine) func(int) error {
		return func(k int) error {
			_, err := b.sweep(eng, b.cubes[k%len(b.cubes)], k, nil, -1)
			return err
		}
	}
	eff, err := parallelEff(sweepOn(one), sweepOn(b.eng))
	if err != nil {
		return err
	}
	m["path.parallel_eff"] = eff

	rng := rand.New(rand.NewSource(b.seed ^ 0x7e91a7))
	pts := make([][2][]float64, replayPoints)
	for k := range pts {
		c := b.cubes[rng.Intn(len(b.cubes))]
		at, prev := make([]float64, len(c)), make([]float64, len(c))
		for a, axis := range c {
			i := rng.Intn(len(axis))
			at[a], prev[a] = axis[i], axis[i]
			if a == len(c)-1 {
				prev[a] = axis[neighbour(i, len(axis))]
			}
		}
		pts[k] = [2][]float64{at, prev}
	}
	return replayOligopoly(b.eng.System(), pts, m)
}

func (b *duopolyBench) layers(m map[string]float64) error {
	m["path.adaptive_solved_frac"] = mean(b.solvedFrac)
	m["path.adaptive_rounds"] = mean(b.rounds)
	m["session.open_us_p50"] = median(b.opens)
	rng := rand.New(rand.NewSource(b.seed ^ 0x7e91a7))
	pts := make([][2][2]float64, replayPoints)
	for k := range pts {
		pl := b.planes[rng.Intn(len(b.planes))]
		i, j := rng.Intn(len(pl[0])), rng.Intn(len(pl[1]))
		pts[k] = [2][2]float64{{pl[0][i], pl[1][j]}, {pl[0][i], pl[1][neighbour(j, len(pl[1]))]}}
	}
	return replayDuopoly(b.eng.System(), pts, m)
}

func (b *queriesBench) layers(m map[string]float64) error {
	c := b.client
	var pts []gameSample
	for _, a := range c.kkt {
		pts = append(pts, gameSample{at: a.q.k, prev: a.q.anchor})
	}
	if c.answered > 0 {
		m["engine.hit_ratio"] = float64(b.stats1.CacheHits-b.stats0.CacheHits) / float64(c.answered)
	}
	if solves := b.stats1.Solves - b.stats0.Solves; solves > 0 {
		m["engine.warm_ratio"] = float64(b.stats1.WarmStarts-b.stats0.WarmStarts) / float64(solves)
	}
	m["engine.hit_us_p50"] = median(c.hitLat)
	m["engine.miss_ms_p50"] = median(c.missLat)
	m["engine.miss_iters_p50"] = median(c.missIters)
	if len(pts) > replayPoints {
		pts = pts[:replayPoints]
	}
	// Engine.SolveAt solves under the default (cold) utilization kernel.
	return replayGameModel(b.eng.System(), pts, game.Options{}, m)
}
