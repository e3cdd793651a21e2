// Command perfbench is the repository's benchmark: it drives the public
// sweep and query surfaces of package neutralnet on seeded workloads, checks
// every output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of standard output.
//
//	go run . -workload surface -seed 1 -seconds 25 -trace 0
//
// See README.md for the workloads, the metrics and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library sees; every workload
// reports all of them. ok_frac is 1 − failed/attempted: the failure share
// recast so that the metric is never 0 on a healthy run.
var endToEnd = []metricDef{
	{"points_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"cpu_ms_per_point", "ms", "lower"},
	{"allocs_per_point", "count", "lower"},
	{"alloc_bytes_per_point", "B", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced-mode metrics. A workload reports every one; a
// layer the workload does not reach reads 0 (an empty sample).
var perLayer = []metricDef{
	{"engine.hit_ratio", "ratio", "higher"},
	{"engine.hit_us_p50", "us", "lower"},
	{"engine.warm_ratio", "ratio", "higher"},
	{"engine.miss_ms_p50", "ms", "lower"},
	{"engine.miss_iters_p50", "count", "lower"},
	{"sweep.iters_per_point", "count", "lower"},
	{"sweep.warm_frac", "ratio", "higher"},
	{"path.parallel_eff", "ratio", "higher"},
	{"path.emit_gap_ms_p50", "ms", "lower"},
	{"path.emit_gap_ms_p90", "ms", "lower"},
	{"path.segments", "count", "higher"},
	{"path.adaptive_solved_frac", "ratio", "lower"},
	{"path.adaptive_rounds", "count", "lower"},
	{"session.open_us_p50", "us", "lower"},
	{"game.nash_cold_us_p50", "us", "lower"},
	{"game.nash_warm_us_p50", "us", "lower"},
	{"game.iters_cold_p50", "count", "lower"},
	{"game.iters_warm_p50", "count", "lower"},
	{"game.br_us_p50", "us", "lower"},
	{"game.marginal_us_p50", "us", "lower"},
	{"game.allocs_per_warm_solve", "count", "lower"},
	{"model.root_cold_us_p50", "us", "lower"},
	{"model.root_warm_us_p50", "us", "lower"},
	{"model.gap_ns_p50", "ns", "lower"},
	{"model.gap_evals_per_root_cold", "count", "lower"},
	{"model.gap_evals_per_root_warm", "count", "lower"},
	{"oligopoly.cpeq_cold_us_p50", "us", "lower"},
	{"oligopoly.cpeq_warm_us_p50", "us", "lower"},
	{"oligopoly.solve_us_p50", "us", "lower"},
	{"duopoly.cpeq_cold_us_p50", "us", "lower"},
	{"duopoly.cpeq_warm_us_p50", "us", "lower"},
	{"duopoly.solve_us_p50", "us", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// bench is one workload after set-up: its inputs, engine and session
// parameters, ready to measure.
type bench interface {
	// run drives operations in a closed loop for d, checking each output,
	// and returns what the phase did. tr is nil when untraced.
	run(d time.Duration, tr *tracer) *tally
	// layers fills the per-layer metrics after a traced run: counts from
	// the traced operations plus a replay of a seeded sample of the
	// workload's points through the deep layers.
	layers(m map[string]float64) error
}

// referencer is a bench whose output check needs a reference computed
// once before timing; the reference is not part of set-up time.
type referencer interface {
	reference() error
}

type workload struct {
	name  string
	why   string
	setup func(seed int64) (bench, error)
}

var workloads = []workload{
	{"surface", "Engine.Sweep over a (p,q,mu) grid of the eight-CP catalog: the Figs. 7-11 computation, dominated by game best responses and model roots", setupSurface},
	{"oligopoly", "3-ISP SweepPricesStream over a price hypercube: loads path.RunOrdered, the stream fold and the oligopoly market", setupOligopoly},
	{"duopoly", "DuopolySession.SweepPricesAdaptive over a 33x33 price plane: the duopoly stack and path.Adaptive", setupDuopoly},
	{"queries", "A closed-loop client calling Engine.SolveAt in bursts of 20 on a repeat/near-neighbour mix: the only load on the engine cache and warm start", setupQueries},
}

// Set-up runs setupWarm untimed times first, so that the process's own
// warm-up (code paths, heap growth) is not counted, then setupRepeats timed
// times, half before the measured phase and half after it; setup_s is the
// median of the timed ones. The host's single-thread speed switches between
// levels about 1.5 times apart for seconds at a time, and a block of
// set-ups lasts well under a second, so one block samples one level: on
// queries the median of one block moved by 64% between two sets of runs
// whose steady-state timings agreed within 9%. Two blocks half a minute
// apart sample the levels as the measured phase does.
const (
	setupWarm    = 3
	setupRepeats = 16
)

// warmPhase is the closed-loop phase an untraced run drives, checked but
// not measured, between set-up and the measured phase: it brings the
// workload to its steady state (on queries, an Engine cache full of fresh
// answers rather than only the hot keys set-up asked).
const warmPhase = 2 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: surface, oligopoly, duopoly or queries")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))

	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = measure(wl, *seed, d)
	} else {
		res, err = measureTraced(wl, *seed, d, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	return res.print(stdout, stderr)
}

// setupTimed runs the workload's set-up warm untimed and then timed timed
// times, each from a collected heap, and returns the last bench and the
// timed durations.
func setupTimed(wl *workload, seed int64, warm, timed int) (bench, []float64, error) {
	var (
		b     bench
		times []float64
	)
	for r := 0; r < warm+timed; r++ {
		b = nil // the previous set-up's engine is collected before timing
		runtime.GC()
		t0 := time.Now()
		nb, err := wl.setup(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		if r >= warm {
			times = append(times, time.Since(t0).Seconds())
		}
		b = nb
	}
	return b, times, nil
}

func withReference(b bench) error {
	if r, ok := b.(referencer); ok {
		if err := r.reference(); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	return nil
}

// measure is the untraced run: set-up, the warm phase, one closed-loop
// phase of d, then the second half of the timed set-ups.
func measure(wl *workload, seed int64, d time.Duration) (*result, error) {
	b, before, err := setupTimed(wl, seed, setupWarm, setupRepeats/2)
	if err != nil {
		return nil, err
	}
	if err := withReference(b); err != nil {
		return nil, err
	}
	warm := b.run(warmPhase, nil)
	runtime.GC()
	t := b.run(d, nil)
	if t.attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	_, after, err := setupTimed(wl, seed, 0, setupRepeats-setupRepeats/2)
	if err != nil {
		return nil, err
	}
	setupS := median(append(before, after...))
	// Failures in the warm phase count: its outputs are checked alike.
	attempted, failed := warm.attempted+t.attempted, warm.failed+t.failed
	okFrac := 1 - float64(failed)/float64(attempted)
	m := map[string]float64{
		"points_per_s":          t.windowRate(),
		"op_p50_ms":             t.opQuantile(0.5),
		"op_p90_ms":             t.opQuantile(0.9),
		"cpu_ms_per_point":      t.perPoint(ms(t.cpu)),
		"allocs_per_point":      t.perPoint(float64(t.mallocs)),
		"alloc_bytes_per_point": t.perPoint(float64(t.bytes)),
		"ok_frac":               okFrac,
		"setup_s":               setupS,
	}
	return &result{defs: endToEnd, metrics: m, attempted: attempted, failed: failed,
		extra: map[string]float64{"fail_frac": 1 - okFrac, "ops": float64(len(t.lat)), "points_per_s_mean": t.pointsPerSec()}}, nil
}

// measureTraced runs a quarter of d untraced, half traced and a quarter
// untraced again, so that drift over the run cancels out of the tracing
// overhead. The per-layer metrics come from the traced half and the replay.
func measureTraced(wl *workload, seed int64, d time.Duration, stdout, stderr io.Writer) (*result, error) {
	b, err := wl.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := withReference(b); err != nil {
		return nil, err
	}
	runtime.GC()
	before := b.run(d/4, nil)
	tr := newTracer()
	runtime.GC()
	traced := b.run(d/2, tr)

	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	// The layer replay counts as one more operation. It reads the traced
	// phase's tallies, so it runs before the next phase resets them.
	failed := 0
	if err := b.layers(m); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: layer replay: %v\n", wl.name, err)
		failed++
	}
	runtime.GC()
	after := b.run(d/4, nil)
	attempted := before.attempted + traced.attempted + after.attempted + 1
	failed += before.failed + traced.failed + after.failed
	if busy := before.busy + after.busy; busy > 0 && traced.busy > 0 {
		plain := float64(before.points+after.points) / busy.Seconds()
		m["trace.overhead_frac"] = 1 - traced.pointsPerSec()/plain
	}

	out := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
	stats, err := tr.write(out)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %s\n", out)
	for _, st := range stats {
		fmt.Fprintf(stdout, "  %-30s n=%-7d total %10.1f ms  self %10.1f ms\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
	}
	return &result{defs: perLayer, metrics: m, attempted: attempted, failed: failed}, nil
}

// result is one run's outcome: the metrics of the requested mode, printed
// as a table and then as the final JSON line.
type result struct {
	defs      []metricDef
	metrics   map[string]float64
	extra     map[string]float64 // shown in the table only
	attempted int
	failed    int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) print(stdout, stderr io.Writer) int {
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, def := range r.defs {
		v := r.metrics[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", def.name)
			return 1
		}
		out.Metrics[def.name] = jsonMetric{Value: v, Unit: def.unit}
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", def.name, v, def.unit)
	}
	for _, k := range []string{"fail_frac", "ops", "points_per_s_mean"} {
		if v, ok := r.extra[k]; ok {
			fmt.Fprintf(stdout, "%-32s %16.6g\n", k, v)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
