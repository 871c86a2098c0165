package stats

import (
	"fmt"
	"math/rand"
	"testing"

	"holoclean/internal/dataset"
)

// randomDataset builds a small dataset with a few repeated values per
// attribute so co-occurrence histograms are non-trivial.
func randomDataset(rng *rand.Rand, tuples, attrs int) *dataset.Dataset {
	names := make([]string, attrs)
	for a := range names {
		names[a] = fmt.Sprintf("A%d", a)
	}
	ds := dataset.New(names)
	row := make([]string, attrs)
	for t := 0; t < tuples; t++ {
		for a := range row {
			if rng.Intn(10) == 0 {
				row[a] = "" // null
			} else {
				row[a] = fmt.Sprintf("v%d", rng.Intn(4))
			}
		}
		ds.Append(row)
	}
	return ds
}

func randomRow(rng *rand.Rand, ds *dataset.Dataset) []dataset.Value {
	row := make([]dataset.Value, ds.NumAttrs())
	for a := range row {
		if rng.Intn(10) == 0 {
			row[a] = dataset.Null
		} else {
			row[a] = ds.Dict().Intern(fmt.Sprintf("v%d", rng.Intn(4)))
		}
	}
	return row
}

// TestApplyMatchesRecollect is the delta-statistics oracle: applying the
// views of a random batch of in-place updates, appends, and deletions
// must leave Stats identical to a fresh Collect of the mutated dataset.
func TestApplyMatchesRecollect(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 30+rng.Intn(30), 2+rng.Intn(3))
		st := Collect(ds)

		var removed, added []TupleView
		// In-place updates.
		for k := 0; k < 1+rng.Intn(5); k++ {
			tup := rng.Intn(ds.NumTuples())
			removed = append(removed, View(ds.Row(tup), nil))
			newRow := randomRow(rng, ds)
			for a, v := range newRow {
				ds.Set(tup, a, v)
			}
			added = append(added, View(ds.Row(tup), nil))
		}
		// Appends.
		for k := 0; k < rng.Intn(3); k++ {
			tup := ds.AppendValues(randomRow(rng, ds))
			added = append(added, View(ds.Row(tup), nil))
		}
		// Swap-deletes.
		for k := 0; k < rng.Intn(2) && ds.NumTuples() > 2; k++ {
			tup := rng.Intn(ds.NumTuples())
			removed = append(removed, View(ds.Row(tup), nil))
			ds.DeleteSwap(tup)
		}

		delta := st.Apply(removed, added)
		fresh := Collect(ds)
		if !st.Equal(fresh) {
			t.Fatalf("seed %d: delta-applied stats differ from recollect", seed)
		}
		// The delta must cover every counter that actually differs from
		// the pre-mutation state (spot check via fresh lookups).
		for k := range delta.Freq {
			_ = fresh.Freq(k.Attr, k.Val) // touched keys must be addressable
		}
	}
}

// TestApplyMaskedMatchesCollectFiltered repeats the oracle for masked
// statistics: views null out masked cells exactly as CollectFiltered's
// skip function does.
func TestApplyMaskedMatchesCollectFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, 50, 3)
	oldMask := make(map[dataset.Cell]bool)
	for k := 0; k < 20; k++ {
		oldMask[dataset.Cell{Tuple: rng.Intn(ds.NumTuples()), Attr: rng.Intn(ds.NumAttrs())}] = true
	}
	skipOld := func(tu, a int) bool { return oldMask[dataset.Cell{Tuple: tu, Attr: a}] }
	st := CollectFiltered(ds, skipOld)

	// Mutate a few rows and flip a few mask bits.
	newMask := make(map[dataset.Cell]bool, len(oldMask))
	for c := range oldMask {
		newMask[c] = true
	}
	touched := map[int]bool{}
	for k := 0; k < 4; k++ {
		tup := rng.Intn(ds.NumTuples())
		touched[tup] = true
	}
	for k := 0; k < 6; k++ {
		c := dataset.Cell{Tuple: rng.Intn(ds.NumTuples()), Attr: rng.Intn(ds.NumAttrs())}
		if newMask[c] {
			delete(newMask, c)
		} else {
			newMask[c] = true
		}
		touched[c.Tuple] = true
	}
	skipNew := func(tu, a int) bool { return newMask[dataset.Cell{Tuple: tu, Attr: a}] }

	var removed, added []TupleView
	for tup := range touched {
		removed = append(removed, View(ds.Row(tup), func(a int) bool { return !skipOld(tup, a) }))
	}
	for tup := range touched {
		if touched[tup] {
			newRow := ds.Row(tup)
			if rng.Intn(2) == 0 {
				newRow = randomRow(rng, ds)
				for a, v := range newRow {
					ds.Set(tup, a, v)
				}
			}
			added = append(added, View(ds.Row(tup), func(a int) bool { return !skipNew(tup, a) }))
		}
	}

	st.Apply(removed, added)
	fresh := CollectFiltered(ds, skipNew)
	if !st.Equal(fresh) {
		t.Fatalf("masked delta-applied stats differ from CollectFiltered")
	}
}

// TestApplyNoOpTouchesNothing pins that identical removed/added views
// report an empty delta — the invalidation signal incremental cleaning
// relies on to keep untouched shards cached.
func TestApplyNoOpTouchesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randomDataset(rng, 20, 3)
	st := Collect(ds)
	v := View(ds.Row(5), nil)
	delta := st.Apply([]TupleView{v}, []TupleView{v})
	if len(delta.Freq) != 0 || len(delta.Cond) != 0 {
		t.Fatalf("no-op apply reported changes: %+v", delta)
	}
	if !st.Equal(Collect(ds)) {
		t.Fatalf("no-op apply mutated statistics")
	}
}

// TestDeltaTouchedLookups exercises the touched-key predicates.
func TestDeltaTouchedLookups(t *testing.T) {
	ds := dataset.New([]string{"A", "B"})
	ds.Append([]string{"x", "1"})
	ds.Append([]string{"x", "2"})
	st := Collect(ds)
	old := View(ds.Row(1), nil)
	ds.SetString(1, 1, "1")
	delta := st.Apply([]TupleView{old}, []TupleView{View(ds.Row(1), nil)})
	one, _ := ds.Dict().Lookup("1")
	two, _ := ds.Dict().Lookup("2")
	x, _ := ds.Dict().Lookup("x")
	if !delta.TouchedFreq(1, one) || !delta.TouchedFreq(1, two) {
		t.Errorf("freq of changed values not touched")
	}
	if delta.TouchedFreq(0, x) {
		t.Errorf("freq of unchanged attribute touched")
	}
	if !delta.TouchedCond(1, one, 0, x) || !delta.TouchedCond(1, two, 0, x) {
		t.Errorf("buckets of the changed values in the B-given-A=x histogram should be touched")
	}
	if delta.TouchedCond(1, x, 0, x) {
		t.Errorf("an untouched bucket should not be reported")
	}
}
