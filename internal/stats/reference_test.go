package stats

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"holoclean/internal/dataset"
)

// refStats is Stats as it stood before the counts moved to code space: one
// map per attribute for frequencies and one map of maps per ordered pair,
// cond[a*N+g][v_g][v_a]. Collection and Apply are kept verbatim; the code
// space implementation must agree with it counter for counter and return
// the same Delta.
type refStats struct {
	numAttrs int
	total    int
	freq     []map[dataset.Value]int
	cond     []map[dataset.Value]map[dataset.Value]int
}

func refCollect(ds *dataset.Dataset, skip func(t, a int) bool) *refStats {
	n := ds.NumAttrs()
	s := &refStats{
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
		for g := 0; g < n; g++ {
			if g == a {
				continue
			}
			m := make(map[dataset.Value]map[dataset.Value]int)
			for t := 0; t < ds.NumTuples(); t++ {
				vg, va := get(t, g), get(t, a)
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
			s.cond[a*n+g] = m
		}
	}
	return s
}

func (s *refStats) hist(a, g int, vg dataset.Value) map[dataset.Value]int {
	if m := s.cond[a*s.numAttrs+g]; m != nil {
		return m[vg]
	}
	return nil
}

func (s *refStats) apply(removed, added []TupleView) *Delta {
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
		ck := CondKey{Attr: k.a, Given: k.g, Val: k.vg}
		if delta.Cond[ck] == nil {
			delta.Cond[ck] = make(map[dataset.Value]struct{})
		}
		delta.Cond[ck][k.va] = struct{}{}
	}
	s.total += len(added) - len(removed)
	return delta
}

func (s *refStats) equal(o *refStats) bool {
	return s.total == o.total && reflect.DeepEqual(s.freq, o.freq) && reflect.DeepEqual(s.cond, o.cond)
}

// checkAgainst compares every reader of st with the reference over the
// values in vals.
func checkAgainst(t *testing.T, where string, st *Stats, ref *refStats, vals []dataset.Value) {
	t.Helper()
	if st.NumTuples() != ref.total {
		t.Fatalf("%s: NumTuples %d, reference %d", where, st.NumTuples(), ref.total)
	}
	n := ref.numAttrs
	for a := 0; a < n; a++ {
		if got, want := st.DistinctValues(a), len(ref.freq[a]); got != want {
			t.Fatalf("%s: DistinctValues(%d) = %d, reference %d", where, a, got, want)
		}
		for _, v := range vals {
			if got, want := st.Freq(a, v), ref.freq[a][v]; got != want {
				t.Fatalf("%s: Freq(%d, %v) = %d, reference %d", where, a, v, got, want)
			}
		}
		for g := 0; g < n; g++ {
			if g == a {
				continue
			}
			for _, vg := range vals {
				want := ref.hist(a, g, vg)
				row := st.Row(a, g, vg)
				got := make(map[dataset.Value]int, row.Len())
				for i := 0; i < row.Len(); i++ {
					k, c := row.At(i)
					if i > 0 {
						if prev, _ := row.At(i - 1); prev >= k {
							t.Fatalf("%s: row (%d | %d=%v) not in ascending code order", where, a, g, vg)
						}
					}
					if row.Value(i) != st.cols[a].vals[k] {
						t.Fatalf("%s: row bucket %d's value and code disagree", where, i)
					}
					got[row.Value(i)] = c
				}
				if len(got) != len(want) || (len(want) > 0 && !maps.Equal(got, want)) {
					t.Fatalf("%s: Row(%d, %d, %v) = %v, reference %v", where, a, g, vg, got, want)
				}
				if row.Given() != ref.freq[g][vg] {
					t.Fatalf("%s: Row(%d, %d, %v).Given() = %d, reference %d", where, a, g, vg, row.Given(), ref.freq[g][vg])
				}
				fg := ref.freq[g][vg]
				for _, v := range vals {
					if got, want := st.Cooc(a, v, g, vg), want[v]; got != want {
						t.Fatalf("%s: Cooc(%d,%v | %d,%v) = %d, reference %d", where, a, v, g, vg, got, want)
					}
					wantP := 0.0
					if fg != 0 {
						wantP = float64(want[v]) / float64(fg)
					}
					if got := st.CondProb(a, v, g, vg); got != wantP {
						t.Fatalf("%s: CondProb(%d,%v | %d,%v) = %v, reference %v", where, a, v, g, vg, got, wantP)
					}
				}
				for _, tau := range []float64{0, 0.3, 0.5, 1} {
					var wantAbove []dataset.Value
					if fg != 0 {
						for v, c := range want {
							if float64(c) >= tau*float64(fg) {
								wantAbove = append(wantAbove, v)
							}
						}
					}
					gotAbove := st.ValuesAbove(a, g, vg, tau)
					slices.Sort(gotAbove)
					slices.Sort(wantAbove)
					if !slices.Equal(gotAbove, wantAbove) {
						t.Fatalf("%s: ValuesAbove(%d, %d, %v, %v) = %v, reference %v", where, a, g, vg, tau, gotAbove, wantAbove)
					}
				}
			}
		}
	}
}

// propertyRelation builds a small relation with the shapes the layout has
// corners for: nulls, values shared across attributes (every attribute
// draws from one pool of strings, so equal strings are one Value), a
// constant column and an all-unique column.
func propertyRelation(rng *rand.Rand) *dataset.Dataset {
	attrs := 3 + rng.Intn(3)
	names := make([]string, attrs)
	for a := range names {
		names[a] = "A" + strconv.Itoa(a)
	}
	ds := dataset.New(names)
	for t := 0; t < 15+rng.Intn(30); t++ {
		ds.AppendValues(propertyRow(rng, ds))
	}
	return ds
}

var uniqueSeq int

// propertyRow draws one row: attribute 0 is constant, attribute 1 unique,
// the rest from a shared pool with nulls.
func propertyRow(rng *rand.Rand, ds *dataset.Dataset) []dataset.Value {
	row := make([]dataset.Value, ds.NumAttrs())
	uniqueSeq++
	for a := range row {
		switch {
		case a == 0:
			row[a] = ds.Dict().Intern("k")
		case a == 1:
			row[a] = ds.Dict().Intern("u" + strconv.Itoa(uniqueSeq))
		case rng.Intn(8) == 0:
			row[a] = dataset.Null
		default:
			row[a] = ds.Dict().Intern("v" + strconv.Itoa(rng.Intn(5)))
		}
	}
	return row
}

// TestApplyMatchesReference drives random relations through random Apply
// scripts — in-place updates, appends, tail deletes, mask flips, a value
// that disappears from an attribute and comes back — on a raw and a masked
// Stats that share one Columns, and checks after every step that every
// reader and the returned Delta agree with the map-of-maps reference, and
// that Equal agrees with the reference's equality.
func TestApplyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := propertyRelation(rng)
		mask := map[dataset.Cell]bool{}
		for k := 0; k < ds.NumCells()/6; k++ {
			mask[dataset.Cell{Tuple: rng.Intn(ds.NumTuples()), Attr: rng.Intn(ds.NumAttrs())}] = true
		}
		skip := func(tu, a int) bool { return mask[dataset.Cell{Tuple: tu, Attr: a}] }
		cols := Encode(ds)
		raw, masked := cols.Collect(), cols.CollectMasked(skip)
		refRaw, refMasked := refCollect(ds, nil), refCollect(ds, skip)
		prevFresh, prevRef := CollectFiltered(ds, skip), refCollect(ds, skip)

		var gone struct {
			attr  int
			val   dataset.Value
			cells []int
		}
		for step := 0; step < 12; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			oldRows := make([][]dataset.Value, ds.NumTuples())
			for tu := range oldRows {
				oldRows[tu] = slices.Clone(ds.Row(tu))
			}
			oldMask := maps.Clone(mask)
			switch op := rng.Intn(5); {
			case op == 0: // in-place updates
				for k := 0; k < 1+rng.Intn(3); k++ {
					tu := rng.Intn(ds.NumTuples())
					for a, v := range propertyRow(rng, ds) {
						ds.Set(tu, a, v)
					}
				}
			case op == 1: // appends
				for k := 0; k < 1+rng.Intn(3); k++ {
					ds.AppendValues(propertyRow(rng, ds))
				}
			case op == 2 && ds.NumTuples() > 3: // tail deletes
				for k := 0; k < 1+rng.Intn(2); k++ {
					ds.DeleteSwap(ds.NumTuples() - 1)
				}
			case op == 3: // mask flips
				for k := 0; k < 1+rng.Intn(4); k++ {
					c := dataset.Cell{Tuple: rng.Intn(ds.NumTuples()), Attr: rng.Intn(ds.NumAttrs())}
					mask[c] = !mask[c]
				}
			default: // a value disappears from an attribute, then comes back
				if gone.cells == nil {
					gone.attr = 2 + rng.Intn(ds.NumAttrs()-2)
					gone.val = ds.Get(rng.Intn(ds.NumTuples()), gone.attr)
					for tu := 0; tu < ds.NumTuples(); tu++ {
						if ds.Get(tu, gone.attr) == gone.val {
							gone.cells = append(gone.cells, tu)
							ds.Set(tu, gone.attr, ds.Dict().Intern("v9"))
						}
					}
				} else {
					for _, tu := range gone.cells {
						if tu < ds.NumTuples() {
							ds.Set(tu, gone.attr, gone.val)
						}
					}
					gone.cells = nil
				}
			}
			view := func(rows func(int) []dataset.Value, m map[dataset.Cell]bool, tu int, masked bool) TupleView {
				if !masked {
					return View(rows(tu), nil)
				}
				return View(rows(tu), func(a int) bool { return !m[dataset.Cell{Tuple: tu, Attr: a}] })
			}
			oldRow := func(tu int) []dataset.Value { return oldRows[tu] }
			// Every slot is passed, changed or not: identical views must
			// cancel out of the Delta.
			var removedRaw, addedRaw, removedMasked, addedMasked []TupleView
			for tu := 0; tu < max(len(oldRows), ds.NumTuples()); tu++ {
				if tu < len(oldRows) {
					removedRaw = append(removedRaw, view(oldRow, oldMask, tu, false))
					removedMasked = append(removedMasked, view(oldRow, oldMask, tu, true))
				}
				if tu < ds.NumTuples() {
					addedRaw = append(addedRaw, view(ds.Row, mask, tu, false))
					addedMasked = append(addedMasked, view(ds.Row, mask, tu, true))
				}
			}
			for _, fam := range []struct {
				name           string
				st             *Stats
				ref            *refStats
				removed, added []TupleView
			}{
				{"raw", raw, refRaw, removedRaw, addedRaw},
				{"masked", masked, refMasked, removedMasked, addedMasked},
			} {
				got, want := fam.st.Apply(fam.removed, fam.added), fam.ref.apply(fam.removed, fam.added)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: Delta %v, reference %v", where, fam.name, got, want)
				}
				vals := make([]dataset.Value, ds.Dict().Size()+1) // every value ever interned, Null and one unknown
				for v := range vals {
					vals[v] = dataset.Value(v)
				}
				checkAgainst(t, where+" "+fam.name, fam.st, fam.ref, vals)
			}
			fresh, freshRef := CollectFiltered(ds, skip), refCollect(ds, skip)
			if !masked.Equal(fresh) || !fresh.Equal(masked) {
				t.Fatalf("%s: delta-applied masked stats differ from a fresh collection", where)
			}
			if got, want := masked.Equal(prevFresh), refMasked.equal(prevRef); got != want {
				t.Fatalf("%s: Equal against the previous collection = %v, reference %v", where, got, want)
			}
			if !raw.Equal(Collect(ds)) {
				t.Fatalf("%s: delta-applied raw stats differ from a fresh collection", where)
			}
			prevFresh, prevRef = fresh, freshRef
		}
	}
}

// TestReadsDoNotAllocate pins that the per-cell readers are lookups:
// Freq, Cooc, CondProb and walking a row allocate nothing.
func TestReadsDoNotAllocate(t *testing.T) {
	ds := benchDataset(500)
	st := Collect(ds)
	dom := ds.ActiveDomain(0)
	v, vg := dom[0], ds.Get(0, 1)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += st.Freq(0, v) + st.Cooc(0, v, 1, vg)
		if st.CondProb(0, v, 1, vg) > 0 {
			sink++
		}
		row := st.Row(0, 1, vg)
		for i := 0; i < row.Len(); i++ {
			_, c := row.At(i)
			sink += c + int(row.Value(i))
		}
	})
	if allocs != 0 {
		t.Errorf("reads allocate %v times per run", allocs)
	}
	if sink == 0 {
		t.Fatal("fixture: nothing was read")
	}
}
