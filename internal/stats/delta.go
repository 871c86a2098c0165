package stats

import (
	"holoclean/internal/dataset"
)

// TupleView is one tuple's contribution to the statistics: Values[a] is
// the value counted for attribute a. A Null entry contributes nothing,
// which is how callers mask cells (a view of a tuple with its noisy cells
// nulled reproduces the CollectFiltered skip semantics).
type TupleView struct {
	Values []dataset.Value
}

// View builds a TupleView from a row, nulling the attributes mask rejects.
// A nil mask keeps every value.
func View(row []dataset.Value, mask func(a int) bool) TupleView {
	v := TupleView{Values: append([]dataset.Value(nil), row...)}
	if mask != nil {
		for a := range v.Values {
			if !mask(a) {
				v.Values[a] = dataset.Null
			}
		}
	}
	return v
}

// FreqKey identifies one frequency counter: attribute a's value v.
type FreqKey struct {
	Attr int
	Val  dataset.Value
}

// CondKey identifies one conditional histogram: the distribution of
// attribute Attr among tuples whose attribute Given holds value Val —
// the context Pr[· | t[Given]=Val] that CondProb, GivenHistogram, and
// ValuesAbove read.
type CondKey struct {
	Attr, Given int
	Val         dataset.Value
}

// Delta reports which statistics an Apply call actually changed, so
// incremental consumers can invalidate exactly the cells whose signals
// read a touched counter. Conditional-histogram changes are tracked per
// target value: a cell's co-occurrence feature h[d] = Pr[d | v_g] reads
// one bucket per candidate d, so a histogram bucket touched for values
// outside the cell's candidate set leaves the cell's features intact —
// the distinction that keeps a delta under a common conditioning value
// (one shared by most of the dataset) from invalidating everything.
type Delta struct {
	// Freq holds the (attribute, value) frequency counters with a nonzero
	// net change.
	Freq map[FreqKey]struct{}
	// Cond maps each touched conditional-histogram context to the set of
	// target values whose buckets changed.
	Cond map[CondKey]map[dataset.Value]struct{}
}

// TouchedFreq reports whether the frequency of (a, v) changed.
func (d *Delta) TouchedFreq(a int, v dataset.Value) bool {
	_, ok := d.Freq[FreqKey{Attr: a, Val: v}]
	return ok
}

// TouchedCond reports whether the bucket of target value v in the
// histogram of a given (g, vg) changed.
func (d *Delta) TouchedCond(a int, v dataset.Value, g int, vg dataset.Value) bool {
	vals, ok := d.Cond[CondKey{Attr: a, Given: g, Val: vg}]
	if !ok {
		return false
	}
	_, ok = vals[v]
	return ok
}

// Apply updates the statistics in place for a batch of tuple changes:
// every removed view's counts are decremented and every added view's
// incremented, exactly as if the statistics had been recollected from a
// dataset without the removed tuples and with the added ones. A tuple
// whose content (or mask) changed is passed as one removed view (its old
// contribution) plus one added view (its new contribution). Counters that
// reach zero are deleted, so the result is structurally identical to a
// fresh Collect/CollectFiltered of the mutated dataset — DistinctValues,
// and GivenHistogram emptiness see no phantom entries.
//
// The returned Delta lists the counters with a nonzero net change; views
// that cancel out (identical old and new contribution) touch nothing.
func (s *Stats) Apply(removed, added []TupleView) *Delta {
	n := s.numAttrs
	type coocKey struct {
		a, g   int
		vg, va dataset.Value
	}
	freqNet := make(map[FreqKey]int)
	coocNet := make(map[coocKey]int)
	accumulate := func(view TupleView, sign int) {
		for a := 0; a < n; a++ {
			va := view.Values[a]
			if va == dataset.Null {
				continue
			}
			freqNet[FreqKey{Attr: a, Val: va}] += sign
			for g := 0; g < n; g++ {
				if g == a {
					continue
				}
				vg := view.Values[g]
				if vg == dataset.Null {
					continue
				}
				coocNet[coocKey{a: a, g: g, vg: vg, va: va}] += sign
			}
		}
	}
	for _, v := range removed {
		accumulate(v, -1)
	}
	for _, v := range added {
		accumulate(v, +1)
	}

	delta := &Delta{
		Freq: make(map[FreqKey]struct{}),
		Cond: make(map[CondKey]map[dataset.Value]struct{}),
	}
	for k, d := range freqNet {
		if d == 0 {
			continue
		}
		f := s.freq[k.Attr]
		if f == nil {
			f = make(map[dataset.Value]int)
			s.freq[k.Attr] = f
		}
		if c := f[k.Val] + d; c != 0 {
			f[k.Val] = c
		} else {
			delete(f, k.Val)
		}
		delta.Freq[k] = struct{}{}
	}
	for k, d := range coocNet {
		if d == 0 {
			continue
		}
		m := s.cond[k.a*n+k.g]
		if m == nil {
			m = make(map[dataset.Value]map[dataset.Value]int)
			s.cond[k.a*n+k.g] = m
		}
		ck := CondKey{Attr: k.a, Given: k.g, Val: k.vg}
		inner := m[k.vg]
		if inner == nil {
			inner = make(map[dataset.Value]int)
			m[k.vg] = inner
		}
		if c := inner[k.va] + d; c != 0 {
			inner[k.va] = c
		} else {
			delete(inner, k.va)
			if len(inner) == 0 {
				delete(m, k.vg)
			}
		}
		vals := delta.Cond[ck]
		if vals == nil {
			vals = make(map[dataset.Value]struct{})
			delta.Cond[ck] = vals
		}
		vals[k.va] = struct{}{}
	}
	s.total += len(added) - len(removed)
	return delta
}

// Equal reports whether two statistics hold identical counters — the
// correctness oracle for Apply (a delta-applied Stats must equal a fresh
// collection of the mutated dataset).
func (s *Stats) Equal(o *Stats) bool {
	if s.numAttrs != o.numAttrs || s.total != o.total {
		return false
	}
	for a := 0; a < s.numAttrs; a++ {
		if len(s.freq[a]) != len(o.freq[a]) {
			return false
		}
		for v, c := range s.freq[a] {
			if o.freq[a][v] != c {
				return false
			}
		}
	}
	for i := range s.cond {
		sm, om := s.cond[i], o.cond[i]
		if len(sm) != len(om) {
			return false
		}
		for vg, sh := range sm {
			oh := om[vg]
			if len(sh) != len(oh) {
				return false
			}
			for va, c := range sh {
				if oh[va] != c {
					return false
				}
			}
		}
	}
	return true
}
