// Package stats computes the quantitative statistics of the input dataset
// that HoloClean uses as a repair signal (Section 1, Section 4.1): value
// frequencies and pairwise co-occurrence counts across attributes. The
// same statistics drive domain pruning (Algorithm 2), the HasFeature
// relation, outlier-based error detection, and the SCARE baseline.
package stats

import (
	"runtime"
	"sync"

	"holoclean/internal/dataset"
)

// Stats holds frequency and co-occurrence statistics for one dataset.
// Co-occurrence is stored directionally: for target attribute a and
// conditioning attribute g, cond[a*N+g] maps a conditioning value v_g to
// the histogram of target values observed in tuples where g = v_g. Both
// directions of every attribute pair are materialized so conditional
// lookups are O(1).
type Stats struct {
	numAttrs int
	total    int
	freq     []map[dataset.Value]int                   // freq[a][v] = #tuples with t[a]=v
	cond     []map[dataset.Value]map[dataset.Value]int // cond[a*N+g][v_g][v_a]
}

// Collect scans the dataset once per ordered attribute pair (parallelized
// across pairs) and returns the statistics. Null cells are skipped: a
// missing value neither counts as evidence nor conditions anything.
func Collect(ds *dataset.Dataset) *Stats {
	return CollectFiltered(ds, nil)
}

// CollectFiltered is Collect with cells excluded by skip (when non-nil)
// treated as missing. HoloClean uses this to compute a second set of
// statistics over the cells error detection considers clean, so that
// systematic errors — which are self-consistent in the dirty data — do
// not manufacture supporting co-occurrence evidence for themselves.
func CollectFiltered(ds *dataset.Dataset, skip func(t, a int) bool) *Stats {
	n := ds.NumAttrs()
	s := &Stats{
		numAttrs: n,
		total:    ds.NumTuples(),
		freq:     make([]map[dataset.Value]int, n),
		cond:     make([]map[dataset.Value]map[dataset.Value]int, n*n),
	}
	get := func(t, a int) dataset.Value {
		if skip != nil && skip(t, a) {
			return dataset.Null
		}
		return ds.Get(t, a)
	}
	for a := 0; a < n; a++ {
		f := make(map[dataset.Value]int)
		for t := 0; t < ds.NumTuples(); t++ {
			if v := get(t, a); v != dataset.Null {
				f[v]++
			}
		}
		s.freq[a] = f
	}

	type pairJob struct{ a, g int }
	jobs := make(chan pairJob)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				m := make(map[dataset.Value]map[dataset.Value]int)
				for t := 0; t < ds.NumTuples(); t++ {
					vg := get(t, j.g)
					va := get(t, j.a)
					if vg == dataset.Null || va == dataset.Null {
						continue
					}
					inner := m[vg]
					if inner == nil {
						inner = make(map[dataset.Value]int)
						m[vg] = inner
					}
					inner[va]++
				}
				s.cond[j.a*n+j.g] = m
			}
		}()
	}
	for a := 0; a < n; a++ {
		for g := 0; g < n; g++ {
			if a != g {
				jobs <- pairJob{a, g}
			}
		}
	}
	close(jobs)
	wg.Wait()
	return s
}

// NumTuples returns the number of tuples the statistics were drawn from.
func (s *Stats) NumTuples() int { return s.total }

// Freq returns the number of tuples whose attribute a equals v.
func (s *Stats) Freq(a int, v dataset.Value) int { return s.freq[a][v] }

// DistinctValues returns the number of distinct non-null values of a.
func (s *Stats) DistinctValues(a int) int { return len(s.freq[a]) }

// Cooc returns the number of tuples with t[a]=v and t[g]=vg, for a ≠ g.
func (s *Stats) Cooc(a int, v dataset.Value, g int, vg dataset.Value) int {
	m := s.cond[a*s.numAttrs+g]
	if m == nil {
		return 0
	}
	return m[vg][v]
}

// CondProb returns Pr[t[a]=v | t[g]=vg] = #(v,vg) / #vg, the quantity
// thresholded by Algorithm 2. It returns 0 when vg never occurs.
func (s *Stats) CondProb(a int, v dataset.Value, g int, vg dataset.Value) float64 {
	fg := s.freq[g][vg]
	if fg == 0 {
		return 0
	}
	return float64(s.Cooc(a, v, g, vg)) / float64(fg)
}

// GivenHistogram returns the histogram of attribute a's values among tuples
// where attribute g equals vg. The returned map is owned by Stats; callers
// must not mutate it. It may be nil.
func (s *Stats) GivenHistogram(a, g int, vg dataset.Value) map[dataset.Value]int {
	m := s.cond[a*s.numAttrs+g]
	if m == nil {
		return nil
	}
	return m[vg]
}

// ValuesAbove returns the values v of attribute a with
// Pr[v | t[g]=vg] ≥ tau, i.e. the per-context candidate set of
// Algorithm 2. The result order is unspecified.
func (s *Stats) ValuesAbove(a, g int, vg dataset.Value, tau float64) []dataset.Value {
	fg := s.freq[g][vg]
	if fg == 0 {
		return nil
	}
	hist := s.GivenHistogram(a, g, vg)
	var out []dataset.Value
	threshold := tau * float64(fg)
	for v, cnt := range hist {
		if float64(cnt) >= threshold {
			out = append(out, v)
		}
	}
	return out
}
