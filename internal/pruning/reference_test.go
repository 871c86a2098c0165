package pruning

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/stats"
)

// computePerCell is Algorithm 2 as Compute ran it before contexts were
// shared: per cell, a set filled from every sibling's histogram, then
// sorted. Kept as the reference TestComputeMatchesPerCellReference compares
// Compute against.
func computePerCell(ds *dataset.Dataset, st *stats.Stats, noisy []dataset.Cell, cfg Config) [][]dataset.Value {
	out := make([][]dataset.Value, len(noisy))
	for i, c := range noisy {
		set := make(map[dataset.Value]struct{})
		if cfg.FullDomain {
			for _, v := range ds.ActiveDomain(c.Attr) {
				set[v] = struct{}{}
			}
		} else {
			for g := 0; g < ds.NumAttrs(); g++ {
				if g == c.Attr {
					continue
				}
				vg := ds.Get(c.Tuple, g)
				if vg == dataset.Null {
					continue
				}
				for _, v := range st.ValuesAbove(c.Attr, g, vg, cfg.Tau) {
					set[v] = struct{}{}
				}
			}
		}
		if init := ds.Get(c.Tuple, c.Attr); init != dataset.Null {
			set[init] = struct{}{}
		}
		cands := make([]dataset.Value, 0, len(set))
		for v := range set {
			cands = append(cands, v)
		}
		if cfg.MaxCandidates > 0 && len(cands) > cfg.MaxCandidates {
			sort.Slice(cands, func(x, y int) bool {
				fx, fy := st.Freq(c.Attr, cands[x]), st.Freq(c.Attr, cands[y])
				if fx != fy {
					return fx > fy
				}
				return cands[x] < cands[y]
			})
			init := ds.Get(c.Tuple, c.Attr)
			kept := cands[:cfg.MaxCandidates]
			if init != dataset.Null && !slices.Contains(kept, init) {
				kept[len(kept)-1] = init
			}
			cands = kept
		}
		sort.Slice(cands, func(x, y int) bool { return cands[x] < cands[y] })
		out[i] = cands
	}
	return out
}

func TestComputeMatchesPerCellReference(t *testing.T) {
	for _, g := range []*datagen.Generated{
		datagen.Hospital(datagen.Config{Tuples: 300, Seed: 2}),
		datagen.Flights(datagen.Config{Tuples: 300, Seed: 2}),
		datagen.Food(datagen.Config{Tuples: 300, Seed: 2}),
	} {
		ds := g.Dirty.Clone()
		// Every injected error plus a stride of clean cells, in (tuple,
		// attribute) order; the first of them loses its initial value.
		var noisy []dataset.Cell
		for tu := 0; tu < ds.NumTuples(); tu++ {
			for a := 0; a < ds.NumAttrs(); a++ {
				if (tu*ds.NumAttrs()+a)%7 == 0 || ds.GetString(tu, a) != g.Truth.GetString(tu, a) {
					noisy = append(noisy, dataset.Cell{Tuple: tu, Attr: a})
				}
			}
		}
		ds.Set(noisy[0].Tuple, noisy[0].Attr, dataset.Null)
		st := stats.Collect(ds)

		var cfgs []Config
		for _, tau := range []float64{0, 0.3, 0.5, 0.9} {
			for _, maxCands := range []int{0, 2} {
				cfgs = append(cfgs, Config{Tau: tau, MaxCandidates: maxCands})
			}
		}
		cfgs = append(cfgs, Config{FullDomain: true}, Config{FullDomain: true, MaxCandidates: 2})
		for _, cfg := range cfgs {
			t.Run(fmt.Sprintf("%s/%+v", g.Name, cfg), func(t *testing.T) {
				got := Compute(ds, st, noisy, cfg)
				want := computePerCell(ds, st, noisy, cfg)
				if !reflect.DeepEqual(got.Cells, noisy) {
					t.Fatal("Cells is not the noisy list")
				}
				for i, c := range noisy {
					if !reflect.DeepEqual(got.Candidates[i], want[i]) {
						t.Fatalf("cell %v: candidates %v, per-cell reference %v", c, got.Candidates[i], want[i])
					}
					if got.Index(c) != i {
						t.Fatalf("cell %v: Index = %d, want %d", c, got.Index(c), i)
					}
				}
			})
		}
	}
}

// TestComputeConcurrentCalls: the context memo belongs to one call. Calls
// sharing a dataset and statistics — at different thresholds, so a shared
// memo would hand one call another's contexts — run concurrently under
// -race and return what they return alone.
func TestComputeConcurrentCalls(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 4})
	ds := g.Dirty
	st := stats.Collect(ds)
	var noisy []dataset.Cell
	for tu := 0; tu < ds.NumTuples(); tu++ {
		for a := tu % 3; a < ds.NumAttrs(); a += 3 {
			noisy = append(noisy, dataset.Cell{Tuple: tu, Attr: a})
		}
	}
	taus := []float64{0, 0.3, 0.5, 0.9}
	got := make([]*Domains, len(taus))
	var wg sync.WaitGroup
	for i, tau := range taus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Compute(ds, st, noisy, Config{Tau: tau})
		}()
	}
	wg.Wait()
	for i, tau := range taus {
		if want := Compute(ds, st, noisy, Config{Tau: tau}); !reflect.DeepEqual(got[i].Candidates, want.Candidates) {
			t.Errorf("tau=%v: a concurrent call returned different domains", tau)
		}
	}
}
