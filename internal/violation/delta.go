package violation

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

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
// index-reachable counterparts (the hash buckets full detection would
// probe). Prev entries referencing tuples beyond the new relation size
// (the old slot of a swap-deleted last tuple) are dropped too. The result
// does not depend on how the changes were batched: the violations of the
// mutated dataset, per constraint in (T1, T2) order.
func (d *Detector) DetectDelta(prev []Violation, changed map[int]bool) []Violation {
	n := d.ds.NumTuples()
	kept := make([][]Violation, len(d.bounds))
	var order []int
	if changed == nil {
		order = make([]int, n)
		for t := range order {
			order[t] = t
		}
	} else {
		for _, v := range prev {
			if v.T1 >= n || v.T2 >= n || changed[v.T1] || (v.T2 >= 0 && changed[v.T2]) {
				continue
			}
			kept[v.Constraint] = append(kept[v.Constraint], v)
		}
		for t := range changed {
			if t < n {
				order = append(order, t)
			}
		}
		slices.Sort(order)
	}
	var out []Violation
	for ci, b := range d.bounds {
		merged := append(kept[ci], d.detectAround(ci, b, order, changed)...)
		slices.SortFunc(merged, func(x, y Violation) int {
			return cmp.Or(cmp.Compare(x.T1, y.T1), cmp.Compare(x.T2, y.T2))
		})
		out = append(out, merged...)
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

// detectAround finds the violations of one constraint that involve at
// least one tuple of order (the changed tuples, ascending), in no
// particular order. A pair of two changed tuples is met from each side in
// that side's orientation; a pair with an unchanged tuple is met from the
// changed side only, which therefore probes both orientations — the
// reverse one through an index that is built only when some tuple is
// unchanged.
func (d *Detector) detectAround(ci int, b *dc.Bound, order []int, changed map[int]bool) []Violation {
	n := d.ds.NumTuples()
	if len(order) == 0 {
		return nil
	}
	someUnchanged := len(order) < n
	switch {
	case b.TupleVars == 1:
		return stripe(order, func(out []Violation, t int) []Violation {
			if b.Violates(t, -1) {
				out = append(out, Violation{Constraint: ci, T1: t, T2: -1})
			}
			return out
		})
	case len(b.Joins) > 0:
		// Hash buckets on the first equality join: tuples by their
		// right-role join value, and — for the reverse direction — by
		// their left-role join value. One O(|D|) pass over the join
		// columns per constraint; pair evaluation, the expensive part of
		// detection, stays proportional to the delta.
		leftAttr, rightAttr := b.Joins[0][0], b.Joins[0][1]
		byRight := make(map[dataset.Value][]int)
		var byLeft map[dataset.Value][]int
		if someUnchanged {
			byLeft = make(map[dataset.Value][]int)
		}
		for t := 0; t < n; t++ {
			if v := d.ds.Get(t, rightAttr); v != dataset.Null {
				byRight[v] = append(byRight[v], t)
			}
			if v := d.ds.Get(t, leftAttr); someUnchanged && v != dataset.Null {
				byLeft[v] = append(byLeft[v], t)
			}
		}
		return stripe(order, func(out []Violation, t1 int) []Violation {
			if v := d.ds.Get(t1, leftAttr); v != dataset.Null {
				for _, t2 := range byRight[v] {
					out = appendPair(out, ci, b, t1, t2)
				}
			}
			if v := d.ds.Get(t1, rightAttr); v != dataset.Null { // byLeft is nil when every tuple changed
				for _, t0 := range byLeft[v] {
					if !changed[t0] {
						out = appendPair(out, ci, b, t0, t1)
					}
				}
			}
			return out
		})
	default:
		// No equality join: scan the changed tuples against everything.
		return stripe(order, func(out []Violation, t1 int) []Violation {
			for t2 := 0; t2 < n; t2++ {
				out = appendPair(out, ci, b, t1, t2)
				if someUnchanged && !changed[t2] {
					out = appendPair(out, ci, b, t2, t1)
				}
			}
			return out
		})
	}
}

// stripeMin is the length of order from which stripe fans out: full
// detection and wide deltas are striped, a serving delta of a handful of
// tuples is walked on the caller's goroutine, where starting workers would
// cost more than its probes.
const stripeMin = 256

// stripe runs around over every tuple of order — interleaved across
// GOMAXPROCS goroutines when order is long — and concatenates what they
// append. around only reads shared state.
func stripe(order []int, around func(out []Violation, t int) []Violation) []Violation {
	workers := runtime.GOMAXPROCS(0)
	if len(order) < stripeMin || workers == 1 {
		var out []Violation
		for _, t := range order {
			out = around(out, t)
		}
		return out
	}
	parts := make([][]Violation, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []Violation // not parts[w]: neighbouring slice headers share a cache line
			for i := w; i < len(order); i += workers {
				local = around(local, order[i])
			}
			parts[w] = local
		}()
	}
	wg.Wait()
	return slices.Concat(parts...)
}
