// Package scare reimplements the SCARE baseline of Yakout, Berti-Équille
// & Elmagarmid (SIGMOD 2013) [39]: SCalable Automatic REpairing. SCARE
// uses no integrity or matching constraints; it learns the statistical
// dependencies between attributes from the data itself (assumed mostly
// clean), scores every cell's current value against the maximum-
// likelihood alternative given the rest of its tuple, and applies value
// modifications ranked by likelihood gain under a bounded-changes budget
// δ. The original partitions the data and trains per-partition ML models;
// with categorical attributes a naive-Bayes-style co-occurrence model is
// the corresponding likelihood, computed here from the same statistics
// substrate HoloClean uses.
package scare

import (
	"sort"

	"holoclean/internal/dataset"
	"holoclean/internal/stats"
)

// Config tunes SCARE.
type Config struct {
	// Delta is the bounded-changes budget as a fraction of tuples
	// (default 0.05, i.e. at most one change per 20 tuples).
	Delta float64
	// MinGain is the minimum likelihood-ratio between the best
	// alternative and the current value for a repair to be considered
	// (default 2.0).
	MinGain float64
	// MaxProb is the maximum contextual support of the current value for
	// the cell to be considered dirty (default 0.25).
	MaxProb float64
	// FlexibleFrom splits the schema into the reliable attribute set X
	// (indices < FlexibleFrom, assumed correct and used as predictors)
	// and the flexible set Y (repair candidates) — the X/Y split SCARE's
	// model requires. Defaults to half the schema; a negative value
	// makes every attribute flexible with every other as predictor.
	FlexibleFrom int
}

// Result reports the repairs.
type Result struct {
	Repaired      *dataset.Dataset
	RepairedCells []dataset.Cell
}

type candidate struct {
	cell dataset.Cell
	val  dataset.Value
	gain float64
}

// Repair runs SCARE on a copy of ds.
func Repair(ds *dataset.Dataset, cfg Config) (*Result, error) {
	delta := cfg.Delta
	if delta == 0 {
		delta = 0.05
	}
	minGain := cfg.MinGain
	if minGain == 0 {
		minGain = 2.0
	}
	maxProb := cfg.MaxProb
	if maxProb == 0 {
		maxProb = 0.25
	}
	flexFrom := cfg.FlexibleFrom
	switch {
	case flexFrom == 0:
		flexFrom = ds.NumAttrs() / 2
	case flexFrom < 0:
		flexFrom = 0
	}
	st := stats.Collect(ds)
	var cands []candidate
	for t := 0; t < ds.NumTuples(); t++ {
		for a := flexFrom; a < ds.NumAttrs(); a++ {
			obs := ds.Get(t, a)
			if obs == dataset.Null {
				continue
			}
			// Contextual support of each value: mean conditional
			// probability given the tuple's reliable cells (naive Bayes
			// with uniform attribute weights). Predictors come from the
			// reliable set X only, unless every attribute is flexible.
			predTo := flexFrom
			if predTo == 0 {
				predTo = ds.NumAttrs()
			}
			support := make(map[dataset.Value]float64)
			siblings := 0
			for g := 0; g < predTo; g++ {
				if g == a {
					continue
				}
				vg := ds.Get(t, g)
				if vg == dataset.Null {
					continue
				}
				siblings++
				row := st.Row(a, g, vg)
				for i := 0; i < row.Len(); i++ {
					_, cnt := row.At(i)
					support[row.Value(i)] += float64(cnt) / float64(row.Given())
				}
			}
			if siblings == 0 {
				continue
			}
			obsSupport := support[obs] / float64(siblings)
			if obsSupport > maxProb {
				continue
			}
			var bestVal dataset.Value
			bestSupport := 0.0
			for v, s := range support {
				s /= float64(siblings)
				if s > bestSupport || (s == bestSupport && v < bestVal) {
					bestVal, bestSupport = v, s
				}
			}
			if bestVal == obs || bestSupport == 0 {
				continue
			}
			gain := bestSupport / (obsSupport + 1e-9)
			if gain < minGain {
				continue
			}
			cands = append(cands, candidate{cell: dataset.Cell{Tuple: t, Attr: a}, val: bestVal, gain: gain})
		}
	}
	// Bounded changes: apply the highest-gain repairs within the budget.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		if cands[i].cell.Tuple != cands[j].cell.Tuple {
			return cands[i].cell.Tuple < cands[j].cell.Tuple
		}
		return cands[i].cell.Attr < cands[j].cell.Attr
	})
	budget := int(delta * float64(ds.NumTuples()))
	if budget < 1 {
		budget = 1
	}
	if len(cands) > budget {
		cands = cands[:budget]
	}
	res := &Result{Repaired: ds.Clone()}
	for _, c := range cands {
		res.Repaired.Set(c.cell.Tuple, c.cell.Attr, c.val)
		res.RepairedCells = append(res.RepairedCells, c.cell)
	}
	return res, nil
}
