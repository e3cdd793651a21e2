package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule). An empty sample reads 0: a layer a
// workload never reaches reports 0 for its timings.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ms, us and ns convert a duration to float milliseconds, microseconds and
// nanoseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+system CPU time (getrusage), which
// counts every thread: on a multi-core host it exposes parallel overhead
// that wall clock hides.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets a measured region: wall clock, process CPU time and heap
// allocation counters. Read the counters before starting the clock and after
// stopping it, so the stop-the-world of ReadMemStats is not timed.
type meter struct {
	m0   runtime.MemStats
	cpu0 time.Duration
	t0   time.Time
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.m0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

// stop ends the region and adds its cost to the tally.
func (m *meter) stop(t *tally) time.Duration {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	t.busy += wall
	t.cpu += cpu
	t.mallocs += m1.Mallocs - m.m0.Mallocs
	t.bytes += m1.TotalAlloc - m.m0.TotalAlloc
	return wall
}

// opSpan places one successful operation on a phase's time axis, in
// seconds from the phase's start, with the points it answered.
type opSpan struct {
	start, end float64
	points     int
}

// tally is what one measured phase of a workload did.
type tally struct {
	lat       []float64 // per-op latency, ms
	spans     []opSpan  // successful ops on the throughput time axis
	attempted int
	failed    int
	points    int           // grid points (or queries) answered by successful ops
	busy      time.Duration // wall time the points took
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
}

// pointsPerSec is the phase's mean throughput: points over the time they
// took.
func (t *tally) pointsPerSec() float64 {
	if t.busy <= 0 {
		return 0
	}
	return float64(t.points) / t.busy.Seconds()
}

// rateWindow is the width of the windows windowRate takes the median over.
const rateWindow = time.Second

// windowRate is the phase's typical throughput: the median, over the whole
// rateWindow-wide windows of the time axis, of the points answered per
// second, each op's points spread evenly over its span. A stall of the
// host that freezes the process for a moment lowers the rate of the window
// it falls in, not the median; the mean, pointsPerSec, absorbs it whole.
// A phase shorter than three windows falls back to the mean.
func (t *tally) windowRate() float64 {
	w := rateWindow.Seconds()
	n := int(t.busy.Seconds() / w)
	if n < 3 {
		return t.pointsPerSec()
	}
	pts := make([]float64, n)
	for _, s := range t.spans {
		if s.end <= s.start {
			if i := int(s.start / w); i < n {
				pts[i] += float64(s.points)
			}
			continue
		}
		perSec := float64(s.points) / (s.end - s.start)
		for i := int(s.start / w); i < n && float64(i)*w < s.end; i++ {
			lo := math.Max(s.start, float64(i)*w)
			hi := math.Min(s.end, float64(i+1)*w)
			pts[i] += perSec * (hi - lo)
		}
	}
	return median(pts) / w
}

// latChunks is how many consecutive, equal shares of a phase's operations
// opQuantile takes a quantile in.
const latChunks = 5

// opQuantile is the phase's typical q-quantile of operation latency: the
// median, over latChunks consecutive equal shares of its operations in the
// order they ran, of each share's q-quantile. A host stall that slows every
// operation for a few seconds lifts the quantile of the share it falls in,
// not the median: on duopoly (about 230 ops a run) two of ten runs read a
// whole-phase p90 of 165 and 189 ms against 113–144 ms for the rest, while
// their CPU time per point stayed within 7% of the others. A phase of fewer
// than 20 operations a share falls back to the whole-phase quantile.
func (t *tally) opQuantile(q float64) float64 {
	n := len(t.lat)
	if n < 20*latChunks {
		return quantile(t.lat, q)
	}
	qs := make([]float64, latChunks)
	for c := range qs {
		qs[c] = quantile(t.lat[c*n/latChunks:(c+1)*n/latChunks], q)
	}
	return median(qs)
}

// perPoint divides a phase total by the points answered.
func (t *tally) perPoint(x float64) float64 {
	if t.points == 0 {
		return 0
	}
	return x / float64(t.points)
}
