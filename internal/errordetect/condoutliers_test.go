package errordetect

import (
	"slices"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/stats"
)

// referenceCondOutliers is CondOutliers as it ran over map-of-maps
// statistics: a support map per cell, filled from each qualifying
// sibling's histogram in ascending g. The code-space detector must flag
// exactly the same cells.
func referenceCondOutliers(ds *dataset.Dataset, maxProb, minRatio float64) []dataset.Cell {
	n := ds.NumAttrs()
	freq := make([]map[dataset.Value]int, n)
	cond := make([]map[dataset.Value]map[dataset.Value]int, n*n)
	for a := 0; a < n; a++ {
		freq[a] = make(map[dataset.Value]int)
		for g := 0; g < n; g++ {
			cond[a*n+g] = make(map[dataset.Value]map[dataset.Value]int)
		}
	}
	for t := 0; t < ds.NumTuples(); t++ {
		for a := 0; a < n; a++ {
			va := ds.Get(t, a)
			if va == dataset.Null {
				continue
			}
			freq[a][va]++
			for g := 0; g < n; g++ {
				if vg := ds.Get(t, g); g != a && vg != dataset.Null {
					if cond[a*n+g][vg] == nil {
						cond[a*n+g][vg] = make(map[dataset.Value]int)
					}
					cond[a*n+g][vg][va]++
				}
			}
		}
	}
	var out []dataset.Cell
	for t := 0; t < ds.NumTuples(); t++ {
		for a := 0; a < n; a++ {
			obs := ds.Get(t, a)
			if obs == dataset.Null {
				continue
			}
			support := make(map[dataset.Value]float64)
			siblings := 0
			for g := 0; g < n; g++ {
				vg := ds.Get(t, g)
				if g == a || vg == dataset.Null || freq[g][vg] < 2 {
					continue
				}
				siblings++
				for v, cnt := range cond[a*n+g][vg] {
					support[v] += float64(cnt) / float64(freq[g][vg])
				}
			}
			if siblings == 0 {
				continue
			}
			obsSupport := support[obs] / float64(siblings)
			best := 0.0
			for _, s := range support {
				if s > best {
					best = s
				}
			}
			best /= float64(siblings)
			if obsSupport <= maxProb && best >= minRatio*obsSupport {
				out = append(out, dataset.Cell{Tuple: t, Attr: a})
			}
		}
	}
	return out
}

// TestCondOutliersMatchesReference pins the dense-scratch detector to the
// map-based one on generated hospital relations, at the default thresholds
// and at looser ones that flag more cells.
func TestCondOutliersMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g := datagen.Hospital(datagen.Config{Tuples: 300, Seed: seed})
		st := stats.Collect(g.Dirty)
		for _, th := range []struct{ maxProb, minRatio float64 }{{0.35, 2}, {0.6, 1.2}} {
			got, err := (&CondOutliers{Stats: st, MaxProb: th.maxProb, MinRatio: th.minRatio}).Detect(g.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceCondOutliers(g.Dirty, th.maxProb, th.minRatio)
			if len(want) == 0 {
				t.Fatalf("seed %d %+v: fixture flags nothing", seed, th)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d %+v: flagged %d cells, reference %d", seed, th, len(got), len(want))
			}
		}
	}
}
