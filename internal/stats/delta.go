package stats

import (
	"slices"

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
// the context Pr[· | t[Given]=Val] that CondProb, Row, and ValuesAbove
// read.
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
// contribution) plus one added view (its new contribution).
//
// The same arrays are updated: an unseen value takes its attribute's next
// code (in view order), a new bucket joins its row in code order, and a
// bucket that reaches zero leaves it, so DistinctValues, Row and Equal see
// no phantom entries — the result equals a fresh Collect/CollectFiltered
// of the mutated dataset value for value, though its codes may differ.
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
			s.cols[a].intern(va)
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
		s.addFreq(k.Attr, s.Code(k.Attr, k.Val), int32(d))
		delta.Freq[k] = struct{}{}
	}
	for k, d := range coocNet {
		if d == 0 {
			continue
		}
		s.hist[k.a*n+k.g].add(s.Code(k.g, k.vg), s.Code(k.a, k.va), int32(d))
		ck := CondKey{Attr: k.a, Given: k.g, Val: k.vg}
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

// addFreq moves the frequency of code k of attribute a by d.
func (s *Stats) addFreq(a int, k, d int32) {
	f := s.freq[a]
	if int(k) >= len(f) {
		f = append(f, make([]int32, int(k)+1-len(f))...)
		s.freq[a] = f
	}
	old := f[k]
	f[k] += d
	switch {
	case old == 0 && f[k] != 0:
		s.distinct[a]++
	case old != 0 && f[k] == 0:
		s.distinct[a]--
	}
}

// add moves the bucket of target code k in row given by d, inserting the
// bucket in code order or removing it when its count reaches zero.
func (h *histogram) add(given, k, d int32) {
	if int(given) >= len(h.rows) {
		h.rows = append(h.rows, make([]span, int(given)+1-len(h.rows))...)
	}
	r := &h.rows[given]
	row := h.arena[r.off : r.off+r.n]
	i, found := slices.BinarySearchFunc(row, k, cmpCode)
	if found {
		if row[i].count += d; row[i].count == 0 {
			copy(row[i:], row[i+1:])
			r.n--
		}
		return
	}
	if r.n == r.cap {
		h.grow(r)
	}
	row = h.arena[r.off : r.off+r.n+1]
	copy(row[i+1:], row[i:])
	row[i] = bucket{code: k, count: d}
	r.n++
}

// grow moves a full row to the arena's tail with twice its room. The span
// it leaves is never reused: since a row's room doubles on every move, the
// abandoned slots stay below the room the live rows hold.
func (h *histogram) grow(r *span) {
	off, c := int32(len(h.arena)), max(2*r.cap, 4)
	h.arena = append(h.arena, make([]bucket, c)...)
	copy(h.arena[off:], h.arena[r.off:r.off+r.n])
	r.off, r.cap = off, c
}

// Equal reports whether two statistics hold identical counters — the
// correctness oracle for Apply (a delta-applied Stats must equal a fresh
// collection of the mutated dataset). Counters are compared by value, not
// by code, so the two sides may number their values differently.
func (s *Stats) Equal(o *Stats) bool {
	n := s.numAttrs
	if n != o.numAttrs || s.total != o.total {
		return false
	}
	for a := 0; a < n; a++ {
		if s.distinct[a] != o.distinct[a] {
			return false
		}
		for k, f := range s.freq[a] {
			if f != 0 && o.Freq(a, s.cols[a].vals[k]) != int(f) {
				return false
			}
		}
	}
	for i := range s.hist {
		a, g := i/n, i%n
		if a == g {
			continue
		}
		sh := &s.hist[i]
		if sh.rowCount() != o.hist[i].rowCount() {
			return false
		}
		for given, r := range sh.rows {
			if r.n == 0 {
				continue
			}
			or := o.Row(a, g, s.cols[g].vals[given])
			if or.Len() != int(r.n) {
				return false
			}
			for _, b := range sh.arena[r.off : r.off+r.n] {
				if or.Count(o.Code(a, s.cols[a].vals[b.code])) != int(b.count) {
					return false
				}
			}
		}
	}
	return true
}

// rowCount returns the number of non-empty rows.
func (h *histogram) rowCount() int {
	c := 0
	for _, r := range h.rows {
		if r.n > 0 {
			c++
		}
	}
	return c
}
