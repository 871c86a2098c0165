package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"holoclean/internal/dataset"
)

func sample() *dataset.Dataset {
	ds := dataset.New([]string{"Zip", "City"})
	ds.Append([]string{"60608", "Chicago"})
	ds.Append([]string{"60608", "Chicago"})
	ds.Append([]string{"60608", "Cicago"})
	ds.Append([]string{"60609", "Chicago"})
	ds.Append([]string{"", "Chicago"})
	return ds
}

func TestFreq(t *testing.T) {
	ds := sample()
	st := Collect(ds)
	zip := ds.AttrIndex("Zip")
	v608, _ := ds.Dict().Lookup("60608")
	v609, _ := ds.Dict().Lookup("60609")
	if st.Freq(zip, v608) != 3 || st.Freq(zip, v609) != 1 {
		t.Errorf("Freq wrong: %d, %d", st.Freq(zip, v608), st.Freq(zip, v609))
	}
	if st.DistinctValues(zip) != 2 {
		t.Errorf("DistinctValues(zip) = %d, want 2 (null excluded)", st.DistinctValues(zip))
	}
}

func TestCondProb(t *testing.T) {
	ds := sample()
	st := Collect(ds)
	zip, city := ds.AttrIndex("Zip"), ds.AttrIndex("City")
	chi, _ := ds.Dict().Lookup("Chicago")
	cic, _ := ds.Dict().Lookup("Cicago")
	v608, _ := ds.Dict().Lookup("60608")
	// Pr[City=Chicago | Zip=60608] = 2/3.
	if got := st.CondProb(city, chi, zip, v608); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Pr[Chicago|60608] = %v, want 2/3", got)
	}
	if got := st.CondProb(city, cic, zip, v608); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Pr[Cicago|60608] = %v, want 1/3", got)
	}
	// Null conditioning rows are excluded: Pr[60608 | Chicago] = 2/4.
	if got := st.CondProb(zip, v608, city, chi); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Pr[60608|Chicago] = %v, want 1/2", got)
	}
	// Unknown conditioning value → 0.
	if got := st.CondProb(city, chi, zip, dataset.Value(9999)); got != 0 {
		t.Errorf("unknown conditioning should give 0, got %v", got)
	}
}

func TestValuesAbove(t *testing.T) {
	ds := sample()
	st := Collect(ds)
	zip, city := ds.AttrIndex("Zip"), ds.AttrIndex("City")
	v608, _ := ds.Dict().Lookup("60608")
	vs := st.ValuesAbove(city, zip, v608, 0.5)
	if len(vs) != 1 || ds.Dict().String(vs[0]) != "Chicago" {
		t.Errorf("ValuesAbove(0.5) = %v, want just Chicago", vs)
	}
	vs = st.ValuesAbove(city, zip, v608, 0.3)
	if len(vs) != 2 {
		t.Errorf("ValuesAbove(0.3) = %v, want both cities", vs)
	}
	if vs = st.ValuesAbove(city, zip, dataset.Value(9999), 0.3); vs != nil {
		t.Errorf("unknown conditioning should give nil")
	}
}

func TestCollectFiltered(t *testing.T) {
	ds := sample()
	// Mask the Cicago cell (tuple 2, City).
	city := ds.AttrIndex("City")
	zip := ds.AttrIndex("Zip")
	masked := CollectFiltered(ds, func(tu, a int) bool { return tu == 2 && a == city })
	cic, _ := ds.Dict().Lookup("Cicago")
	chi, _ := ds.Dict().Lookup("Chicago")
	v608, _ := ds.Dict().Lookup("60608")
	if masked.Freq(city, cic) != 0 {
		t.Errorf("masked cell should not count toward frequency")
	}
	// Pr[Chicago | 60608] over clean cells = 2/2... the conditioning
	// denominator is the *frequency of 60608*, which is unmasked: 3.
	if got := masked.CondProb(city, chi, zip, v608); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("masked Pr[Chicago|60608] = %v, want 2/3", got)
	}
	if got := masked.Cooc(city, cic, zip, v608); got != 0 {
		t.Errorf("masked co-occurrence should be 0, got %d", got)
	}
}

// TestCollectMatchesNaive checks the parallel collection against a naive
// single-threaded recount on random data.
func TestCollectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := dataset.New([]string{"A", "B", "C"})
	vals := []string{"", "x", "y", "z", "w"}
	for i := 0; i < 200; i++ {
		ds.Append([]string{vals[rng.Intn(5)], vals[rng.Intn(5)], vals[rng.Intn(5)]})
	}
	st := Collect(ds)
	for a := 0; a < 3; a++ {
		for g := 0; g < 3; g++ {
			if a == g {
				continue
			}
			for _, va := range ds.ActiveDomain(a) {
				for _, vg := range ds.ActiveDomain(g) {
					want := 0
					for tu := 0; tu < ds.NumTuples(); tu++ {
						if ds.Get(tu, a) == va && ds.Get(tu, g) == vg {
							want++
						}
					}
					if got := st.Cooc(a, va, g, vg); got != want {
						t.Fatalf("Cooc(%d,%v | %d,%v) = %d, want %d", a, va, g, vg, got, want)
					}
				}
			}
		}
	}
}

// TestCondProbSumsToOne: Σ_v Pr[v | vg] == 1 whenever vg occurs with at
// least one non-null target value.
func TestCondProbSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := dataset.New([]string{"A", "B"})
	vals := []string{"x", "y", "z"}
	for i := 0; i < 100; i++ {
		ds.Append([]string{vals[rng.Intn(3)], vals[rng.Intn(3)]})
	}
	st := Collect(ds)
	f := func(gi uint8) bool {
		vg := ds.ActiveDomain(1)[int(gi)%len(ds.ActiveDomain(1))]
		sum := 0.0
		for _, va := range ds.ActiveDomain(0) {
			sum += st.CondProb(0, va, 1, vg)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestTransposeMatchesFill: every pair's second direction, which collection
// builds by transposing the first, holds the spans and arena a direct fill
// from its own target's tuple order builds, on random relations with nulls,
// raw and under a random mask.
func TestTransposeMatchesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		ds := randomDataset(rng, 1+rng.Intn(60), 2+rng.Intn(4))
		cols := Encode(ds)
		masked := make(map[dataset.Cell]bool)
		for tu := 0; tu < ds.NumTuples(); tu++ {
			for a := 0; a < ds.NumAttrs(); a++ {
				if rng.Intn(4) == 0 {
					masked[dataset.Cell{Tuple: tu, Attr: a}] = true
				}
			}
		}
		skip := func(tu, a int) bool { return masked[dataset.Cell{Tuple: tu, Attr: a}] }
		for _, mask := range []func(t, a int) bool{nil, skip} {
			st := cols.CollectMasked(mask, 1+rng.Intn(3))
			n := ds.NumAttrs()
			for a := 0; a < n; a++ {
				codes := make([][]int32, n)
				for g := range codes {
					codes[g] = slices.Clone(cols.codes[g])
					for tu, k := range codes[g] {
						if k >= 0 && mask != nil && mask(tu, g) {
							codes[g][tu] = -1
						}
					}
				}
				for g := 0; g < n; g++ {
					if g == a {
						continue
					}
					want, _ := fill(cols.order[a], codes[a], codes[g], len(cols.cols[g].vals), nil)
					got := st.hist[a*n+g]
					if !slices.Equal(got.rows, want.rows) || !slices.Equal(got.arena, want.arena) {
						t.Fatalf("trial %d, masked %v, pair (%d | %d): rows %v arena %v, direct fill rows %v arena %v",
							trial, mask != nil, a, g, got.rows, got.arena, want.rows, want.arena)
					}
				}
			}
		}
	}
}
