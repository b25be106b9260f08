package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/stats"
)

// quartiles returns the first quartile, median and third quartile of
// xs by linear interpolation (xs is sorted in place). Zeroes for an
// empty slice.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	return stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailPercentile picks the highest of p50/p90/p99 that still has at
// least ten samples beyond it, so a short run never reports a "p99"
// that is really its single worst request: p99 needs n >= 1000, p90
// needs n >= 100.
func tailPercentile(n int) int {
	switch {
	case n >= 1000:
		return 99
	case n >= 100:
		return 90
	default:
		return 50
	}
}

// latencySummary reduces request latencies to microseconds: the median
// with its quartiles, and the tail at percentile pct (see
// tailPercentile).
type latencySummary struct {
	n           int
	q1, p50, q3 float64
	tail        float64
	pct         int
}

// summarizeLatencies sorts ns (nanoseconds) in place.
func summarizeLatencies(ns []int64) latencySummary {
	s := latencySummary{n: len(ns), pct: tailPercentile(len(ns))}
	if len(ns) == 0 {
		return s
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) float64 {
		return float64(ns[int(q*float64(len(ns)-1))]) / 1e3
	}
	s.q1, s.p50, s.q3 = at(0.25), at(0.5), at(0.75)
	s.tail = at(float64(s.pct) / 100)
	return s
}

// timeCalls times fn in samples groups of inner calls each and returns
// every group's nanoseconds per call; callers report the median.
// Grouping keeps the clock read out of calls that take tens of
// nanoseconds, and the median drops groups a GC cycle or a neighbour
// landed in.
func timeCalls(samples, inner int, fn func()) []float64 {
	fn() // first call pays lazy initialisation and cold caches
	per := make([]float64, samples)
	for s := range per {
		start := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		per[s] = float64(time.Since(start).Nanoseconds()) / float64(inner)
	}
	return per
}

// allocsPerCall counts heap allocations per call of fn. Only valid
// while nothing else in the process allocates, which holds for the
// layer probes: the listeners are idle while they run.
func allocsPerCall(calls int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// procSnapshot is the process-level state the proc.* layer metrics are
// deltas of.
type procSnapshot struct {
	at      time.Time
	cpu     time.Duration
	stolen  time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNS uint64
}

func readProc() procSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnapshot{
		at: time.Now(), cpu: processCPU(), stolen: stolenCPU(),
		mallocs: m.Mallocs, bytes: m.TotalAlloc, numGC: m.NumGC, pauseNS: m.PauseTotalNs,
	}
}

// procUse is what the process consumed between two snapshots, and what
// the hypervisor withheld from the guest meanwhile.
type procUse struct {
	wall, cpu, stolen time.Duration
	mallocs, bytes    uint64
	gcCycles          uint64
	pauseNS           uint64
}

func (a procSnapshot) since(b procSnapshot) procUse {
	return procUse{
		wall: a.at.Sub(b.at), cpu: a.cpu - b.cpu, stolen: a.stolen - b.stolen,
		mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes,
		gcCycles: uint64(a.numGC - b.numGC), pauseNS: a.pauseNS - b.pauseNS,
	}
}

func (u *procUse) add(v procUse) {
	u.wall, u.cpu, u.stolen = u.wall+v.wall, u.cpu+v.cpu, u.stolen+v.stolen
	u.mallocs, u.bytes = u.mallocs+v.mallocs, u.bytes+v.bytes
	u.gcCycles, u.pauseNS = u.gcCycles+v.gcCycles, u.pauseNS+v.pauseNS
}

// pairSeries is a phase's pairs as series: the workload's own figures
// (plans/s, µs of process CPU per plan, median latency in µs) and each
// as a multiple of the reference load's figure in the same pair. A pair
// in which either side completed nothing has no ratio and is left out.
type pairSeries struct {
	rate, cpu, lat          []float64
	relRate, relCPU, relLat []float64
	refRate, refCPU, refLat []float64
}

func seriesOf(pairs []pair) pairSeries {
	var s pairSeries
	for _, p := range pairs {
		if p.work.units == 0 || p.ref.units == 0 {
			continue
		}
		s.rate = append(s.rate, p.work.perSecond())
		s.cpu = append(s.cpu, p.work.cpuMicros())
		s.lat = append(s.lat, p.work.latP50)
		s.refRate = append(s.refRate, p.ref.perSecond())
		s.refCPU = append(s.refCPU, p.ref.cpuMicros())
		s.refLat = append(s.refLat, p.ref.latP50)
		s.relRate = append(s.relRate, ratio(p.work.perSecond(), p.ref.perSecond()))
		s.relCPU = append(s.relCPU, ratio(p.work.cpuMicros(), p.ref.cpuMicros()))
		s.relLat = append(s.relLat, ratio(p.work.latP50, p.ref.latP50))
	}
	return s
}

// relDiff is |a-b| as a share of their mean: the symmetric disagreement
// between two runs of the same code.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / ((math.Abs(a) + math.Abs(b)) / 2)
}
