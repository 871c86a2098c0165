// Package violation detects denial-constraint violations and materializes
// the conflict hypergraph of Kolahi & Lakshmanan [26] that HoloClean's
// error detection (Section 2.2), tuple partitioning (Section 5.1.2,
// Algorithm 3), and the Holistic baseline [12] all consume.
//
// Detection avoids the O(|D|²) pair scan whenever a constraint contains an
// equality predicate across its two tuple variables: tuples are hash
// partitioned on the join attribute and only within-bucket pairs are
// evaluated. Constraints without an equality join fall back to an exact
// pair scan. Both are one routine (delta.go) over the tuples that changed;
// full detection is the delta in which every tuple did.
package violation

import (
	"slices"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

// Violation is one grounded constraint violation. For single-tuple
// constraints T2 is -1. For pairwise constraints the pair is canonical:
// when both orientations of a pair violate σ, only (min,max) is reported.
type Violation struct {
	Constraint int // index into the detector's constraint list
	T1, T2     int
}

// Detector runs violation detection for a fixed dataset and constraint set.
type Detector struct {
	ds     *dataset.Dataset
	bounds []*dc.Bound
}

// NewDetector binds the constraints against the dataset.
func NewDetector(ds *dataset.Dataset, constraints []*dc.Constraint) (*Detector, error) {
	bounds, err := dc.BindAll(constraints, ds)
	if err != nil {
		return nil, err
	}
	return &Detector{ds: ds, bounds: bounds}, nil
}

// Bounds exposes the bound constraints, indexed as in Violation.Constraint.
func (d *Detector) Bounds() []*dc.Bound { return d.bounds }

// Detect finds all violations of all constraints: the delta in which every
// tuple changed.
func (d *Detector) Detect() []Violation { return d.DetectDelta(nil, nil) }

// NaiveDetect enumerates every ordered tuple pair for every constraint.
// It exists as the correctness oracle for property tests; Detect must
// produce the same violation set. It shares the per-pair rule (appendPair)
// with detection and none of its indexing, striping or delta bookkeeping:
// what it checks is which pairs detection reaches.
func NaiveDetect(ds *dataset.Dataset, constraints []*dc.Constraint) ([]Violation, error) {
	bounds, err := dc.BindAll(constraints, ds)
	if err != nil {
		return nil, err
	}
	var out []Violation
	for ci, b := range bounds {
		if b.TupleVars == 1 {
			for t := 0; t < ds.NumTuples(); t++ {
				if b.Violates(t, -1) {
					out = append(out, Violation{Constraint: ci, T1: t, T2: -1})
				}
			}
			continue
		}
		for t1 := 0; t1 < ds.NumTuples(); t1++ {
			for t2 := 0; t2 < ds.NumTuples(); t2++ {
				out = appendPair(out, ci, b, t1, t2)
			}
		}
	}
	return out, nil
}

// Cells returns the cells participating in the violation: the
// constraint's distinct cell references instantiated with the violating
// tuples, deduplicated.
func (d *Detector) Cells(v Violation) []dataset.Cell {
	refs := d.bounds[v.Constraint].Refs
	out := make([]dataset.Cell, 0, len(refs))
	for _, r := range refs {
		t := v.T1
		if r.TupleVar == 1 {
			t = v.T2
		}
		if c := (dataset.Cell{Tuple: t, Attr: r.Attr}); t >= 0 && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}
