package violation

import (
	"cmp"
	"slices"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

// DetectDelta recomputes violation detection after a batch of tuple
// changes without re-evaluating untouched tuple pairs. prev is the
// violation list of the previous detection run (over the pre-mutation
// dataset) and changed the set of tuple indexes whose content is new:
// updated in place, appended, or renumbered by a swap-delete. A nil
// changed means every tuple: nothing of prev survives and the result is
// full detection. The detector must be bound against the *mutated*
// dataset.
//
// Violations among unchanged tuples cannot appear or disappear, so they
// are carried forward from prev; every violation touching a changed tuple
// is dropped and re-detected by joining the changed tuples against their
// join blocks (the blocks full detection enumerates). Prev entries
// referencing tuples beyond the new relation size (the old slot of a
// swap-deleted last tuple) are dropped too. The result does not depend on
// how the changes were batched: the violations of the mutated dataset,
// per constraint in (T1, T2) order.
func (d *Detector) DetectDelta(prev []Violation, changed map[int]bool) []Violation {
	n := d.ds.NumTuples()
	s := &scope{ds: d.ds, blocks: make([]*dataset.Blocks, d.ds.NumAttrs())}
	kept := make([][]Violation, len(d.bounds))
	if changed != nil {
		s.changed = make([]bool, n)
		for t := range changed {
			if t < n {
				s.changed[t] = true
				s.order = append(s.order, t)
			}
		}
		slices.Sort(s.order)
		for _, v := range prev {
			if v.T1 >= n || v.T2 >= n || s.changed[v.T1] || (v.T2 >= 0 && s.changed[v.T2]) {
				continue
			}
			kept[v.Constraint] = append(kept[v.Constraint], v)
		}
	}
	var keys []uint64
	for ci, b := range d.bounds {
		switch {
		case changed != nil && len(s.order) == 0: // nothing to re-detect, no index to build
		case b.FDAttr >= 0:
			kept[ci] = append(kept[ci], s.fdPairs(ci, b)...)
		default:
			kept[ci] = append(kept[ci], s.evaluatePairs(ci, b)...)
		}
		keys = sortPairs(kept[ci], keys)
	}
	return slices.Concat(kept...)
}

// sortPairs sorts the violations of one constraint into (T1, T2) order as
// packed integers, in keys' storage, which it returns for reuse.
func sortPairs(vs []Violation, keys []uint64) []uint64 {
	keys = keys[:0]
	for _, v := range vs {
		keys = append(keys, uint64(v.T1)<<32|uint64(uint32(v.T2+1))) // T2 = -1 sorts first
	}
	slices.Sort(keys)
	for i, k := range keys {
		vs[i].T1, vs[i].T2 = int(k>>32), int(uint32(k))-1
	}
	return keys
}

// scope is one detection call: the relation, the tuples whose pairs are
// re-detected, and the block indexes built so far.
type scope struct {
	ds      *dataset.Dataset
	changed []bool // nil: every tuple changed
	order   []int  // the changed tuples, ascending; unused when changed is nil
	blocks  []*dataset.Blocks
}

// block returns the block index of attribute a (its tuples by value,
// null cells left out since no predicate holds of them), built on first
// use: one per distinct join attribute per call, shared by every
// constraint that joins on it.
func (s *scope) block(a int) *dataset.Blocks {
	if ix := s.blocks[a]; ix != nil {
		return ix
	}
	ix := dataset.NewBlocks(s.ds.NumTuples(), func(t int, dst []dataset.Value) []dataset.Value {
		if v := s.ds.Get(t, a); v != dataset.Null {
			dst = append(dst, v)
		}
		return dst
	})
	s.blocks[a] = ix
	return ix
}

// fdPairs finds the violations of an FD-shaped constraint (dc.Bound.FDAttr)
// that involve a changed tuple, without evaluating a pair: inside a block
// of the first join attribute, a violating pair is two tuples equal on the
// other join attributes whose FDAttr values differ, all non-null, and it
// is reported once as (min, max). Full detection sorts each block by those
// values, so a block costs O(b log b) plus one step per violation instead
// of b² pair evaluations; a delta walks each changed tuple's block once.
func (s *scope) fdPairs(ci int, b *dc.Bound) []Violation {
	ix := s.block(b.Joins[0][0])
	// attrs are compared after the block's join value: the other join
	// attributes, then the ≠ attribute last.
	attrs := make([]int, 0, len(b.Joins))
	for _, j := range b.Joins[1:] {
		attrs = append(attrs, j[0])
	}
	attrs = append(attrs, b.FDAttr)
	eligible := func(t int32) bool {
		for _, a := range attrs {
			if s.ds.Get(int(t), a) == dataset.Null {
				return false
			}
		}
		return true
	}
	// group compares two tuples on the join attributes after the first.
	group := func(x, y int32) int {
		for _, a := range attrs[:len(attrs)-1] {
			if c := cmp.Compare(s.ds.Get(int(x), a), s.ds.Get(int(y), a)); c != 0 {
				return c
			}
		}
		return 0
	}
	var out []Violation
	if s.changed != nil {
		for _, t1 := range s.order {
			v0 := s.ds.Get(t1, b.Joins[0][0])
			if v0 == dataset.Null || !eligible(int32(t1)) {
				continue
			}
			v1 := s.ds.Get(t1, b.FDAttr)
			for _, t2 := range ix.Of(v0) {
				// A pair of two changed tuples is met from its smaller side.
				if int(t2) == t1 || (s.changed[t2] && int(t2) < t1) {
					continue
				}
				if v2 := s.ds.Get(int(t2), b.FDAttr); v2 != dataset.Null && v2 != v1 && group(int32(t1), t2) == 0 {
					out = append(out, Violation{Constraint: ci, T1: min(t1, int(t2)), T2: max(t1, int(t2))})
				}
			}
		}
		return out
	}
	var blk []int32
	for i := range ix.Len() {
		blk = blk[:0]
		for _, t := range ix.Block(i) {
			if eligible(t) {
				blk = append(blk, t)
			}
		}
		slices.SortFunc(blk, func(x, y int32) int {
			return cmp.Or(group(x, y), cmp.Compare(s.ds.Get(int(x), b.FDAttr), s.ds.Get(int(y), b.FDAttr)), cmp.Compare(x, y))
		})
		// blk[lo:hi] is one group; blk[j:k] one run of equal ≠ values in
		// it, which violates against every later run of the group.
		for lo := 0; lo < len(blk); {
			hi := lo + 1
			for hi < len(blk) && group(blk[lo], blk[hi]) == 0 {
				hi++
			}
			for j := lo; j < hi; {
				k := j + 1
				for k < hi && s.ds.Get(int(blk[k]), b.FDAttr) == s.ds.Get(int(blk[j]), b.FDAttr) {
					k++
				}
				for _, t1 := range blk[j:k] {
					for _, t2 := range blk[k:hi] {
						out = append(out, Violation{Constraint: ci, T1: int(min(t1, t2)), T2: int(max(t1, t2))})
					}
				}
				j = k
			}
			lo = hi
		}
	}
	return out
}

// appendPair evaluates the ordered tuple pair (t1, t2) against one
// constraint — the only place a pair is evaluated — and appends its
// violation under the canonical-orientation rule: a pair violating in both
// orientations is reported as (min, max) only.
func appendPair(out []Violation, ci int, b *dc.Bound, t1, t2 int) []Violation {
	if t1 == t2 || !b.Violates(t1, t2) {
		return out
	}
	if t1 > t2 && b.Violates(t2, t1) {
		return out // canonical orientation already reported
	}
	return append(out, Violation{Constraint: ci, T1: t1, T2: t2})
}

// evaluatePairs finds the violations of one constraint of any other shape
// that involve at least one changed tuple, in no particular order, by
// evaluating pairs. A pair of two changed tuples is met from each side in
// that side's orientation; a pair with an unchanged tuple is met from the
// changed side only, which therefore probes both orientations — the
// reverse one through the left join attribute's blocks, consulted only
// when some tuple is unchanged.
func (s *scope) evaluatePairs(ci int, b *dc.Bound) []Violation {
	n := s.ds.NumTuples()
	order := s.order
	if s.changed == nil {
		order = make([]int, n)
		for t := range order {
			order[t] = t
		}
	}
	var out []Violation
	switch {
	case b.TupleVars == 1:
		for _, t := range order {
			if b.Violates(t, -1) {
				out = append(out, Violation{Constraint: ci, T1: t, T2: -1})
			}
		}
	case len(b.Joins) > 0:
		// Pairs within the blocks of the first equality join: a tuple's
		// right-role partners hold its left-role join value, and — for
		// the reverse direction — its left-role partners its right-role
		// value.
		leftAttr, rightAttr := b.Joins[0][0], b.Joins[0][1]
		byRight := s.block(rightAttr)
		var byLeft *dataset.Blocks
		if s.changed != nil {
			byLeft = s.block(leftAttr)
		}
		for _, t1 := range order {
			if v := s.ds.Get(t1, leftAttr); v != dataset.Null {
				for _, t2 := range byRight.Of(v) {
					out = appendPair(out, ci, b, t1, int(t2))
				}
			}
			if v := s.ds.Get(t1, rightAttr); byLeft != nil && v != dataset.Null {
				for _, t0 := range byLeft.Of(v) {
					if !s.changed[t0] {
						out = appendPair(out, ci, b, int(t0), t1)
					}
				}
			}
		}
	default:
		// No equality join: scan the changed tuples against everything.
		for _, t1 := range order {
			for t2 := 0; t2 < n; t2++ {
				out = appendPair(out, ci, b, t1, t2)
				if s.changed != nil && !s.changed[t2] {
					out = appendPair(out, ci, b, t2, t1)
				}
			}
		}
	}
	return out
}
