package main

import (
	"sort"
	"time"
)

// The sandbox this runs on is a few cores of a shared host, and the host
// has slow phases: for ten seconds to a minute at a time every operation
// takes 10–25% longer (see README, "Host interference"). A plain median
// over a run that such a phase covers half of lands in the slow mode, so
// two runs of the same code differ by the size of the phase, not of the
// program. The timed phase is therefore cut into slices of sliceLen, and
// every timing metric is computed from the quietest third of them — the
// slices whose median op latency is lowest. Interference that covers up
// to two thirds of a run no longer moves the result; the price is a
// figure a few percent under the plain median (the kept slices are also
// those that happened to draw cheaper operations), the same on every
// commit.

// The host also has stalls: now and then, for one to three minutes, the
// hypervisor gives the guest's CPUs a half to a fifth of their time, and
// says so in /proc/stat's steal figure. No statistic over a run that sits
// inside a stall says anything about the program, so a slice the host
// stole more than stolenShare of does not count: it is left out of every
// metric, and the timed phase goes on until it holds the asked-for time in
// slices that do count — or, if the stall outlasts it, for maxStretch
// times as long, after which the run reports what it has.

const (
	// sliceLen is how long one slice of the timed phase lasts. Long enough
	// for a dozen serve ops, so that a slice's median says something about
	// the host and not only about the ops it drew; short against a slow
	// phase.
	sliceLen = 2 * time.Second
	// stolenShare of a slice's wall clock in steal (summed over the CPUs)
	// marks the slice as stolen. A quiet host steals a tick or two per
	// slice, under 2%; a stall 50–150%.
	stolenShare = 0.04
	// maxStretch bounds a timed phase that keeps meeting stolen slices, so
	// that a run ends within the contract's three minutes whatever the
	// host does.
	maxStretch = 4
)

// slice is what the timed phase measured in one stretch of about
// sliceLen: the latency of every op that completed in it, how long it
// lasted, the CPU time the process under test used meanwhile, and the
// time the host stole from the guest.
type slice struct {
	LatMS   []float64 `json:"lat_ms"`
	WallS   float64   `json:"wall_s"`
	CPUMS   float64   `json:"cpu_ms"`
	StolenS float64   `json:"stolen_s"`
}

func (s slice) stolen() bool { return s.StolenS > stolenShare*s.WallS }

func countStolen(slices []slice) int {
	n := 0
	for _, s := range slices {
		if s.stolen() {
			n++
		}
	}
	return n
}

// phaseClock says when a timed phase is over.
type phaseClock struct {
	budget, counted time.Duration
	start           time.Time
}

func newPhaseClock(seconds float64) *phaseClock {
	return &phaseClock{budget: time.Duration(seconds * float64(time.Second)), start: time.Now()}
}

// add counts a finished slice towards the budget unless it was stolen.
func (c *phaseClock) add(s slice) {
	if !s.stolen() {
		c.counted += time.Duration(s.WallS * float64(time.Second))
	}
}

func (c *phaseClock) over() bool {
	return c.counted >= c.budget || time.Since(c.start) >= maxStretch*c.budget
}

// quietThird returns the third (rounded up) of the slices with the lowest
// median latency, stolen slices set aside — unless every slice was
// stolen, when the run has nothing better to report. Slices in which no
// op completed are left out: they have no median to rank by.
func quietThird(slices []slice) []slice {
	var ranked, stolen []slice
	for _, s := range slices {
		switch {
		case len(s.LatMS) == 0:
		case s.stolen():
			stolen = append(stolen, s)
		default:
			ranked = append(ranked, s)
		}
	}
	if len(ranked) == 0 {
		ranked = stolen
	}
	sort.SliceStable(ranked, func(i, j int) bool { return median(ranked[i].LatMS) < median(ranked[j].LatMS) })
	return ranked[:(len(ranked)+2)/3]
}

// timings are the four timing metrics of a set of slices.
type timings struct {
	ops                            int
	p50MS, tailMS, opsPerS, cpuPer float64
}

// summarise pools the ops of the given slices: the median and the tailPct
// percentile of their latencies, ops per second of slice time, and CPU
// time per op.
func summarise(slices []slice, tailPct float64) timings {
	var lat []float64
	var wall, cpu float64
	for _, s := range slices {
		lat = append(lat, s.LatMS...)
		wall += s.WallS
		cpu += s.CPUMS
	}
	n := float64(len(lat))
	return timings{
		ops:     len(lat),
		p50MS:   median(lat),
		tailMS:  percentile(lat, tailPct),
		opsPerS: n / wall,
		cpuPer:  cpu / n,
	}
}

// quietMedian is quietThird for a handful of repetitions of one fixed
// piece of work (a restore, a recovery): the median of the fastest third.
func quietMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s[:(len(s)+2)/3])
}
