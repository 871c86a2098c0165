package violation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

var fdAttrs = []string{"A", "B", "C", "D"}

// fdValues is small so blocks are large and values collide; "" is Null.
var fdValues = []string{"", "x", "y", "z", "1", "2"}

func randomFDRow(rng *rand.Rand) []string {
	row := make([]string, len(fdAttrs))
	for a := range row {
		row[a] = fdValues[rng.Intn(len(fdValues))]
	}
	return row
}

// randomFDRelation draws a relation with nulls in every attribute and
// some exact duplicate rows.
func randomFDRelation(rng *rand.Rand, tuples int) *dataset.Dataset {
	ds := dataset.New(fdAttrs)
	for _, v := range fdValues {
		ds.Dict().Intern(v) // constants below must bind to interned values
	}
	for t := 0; t < tuples; t++ {
		if t > 0 && rng.Intn(5) == 0 {
			src := rng.Intn(t)
			row := make([]string, len(fdAttrs))
			for a := range row {
				row[a] = ds.GetString(src, a)
			}
			ds.Append(row)
			continue
		}
		ds.Append(randomFDRow(rng))
	}
	return ds
}

// fdConstraints returns FD-shaped rules — single and composite left-hand
// sides, a = written from t2's side, a left-hand side that repeats the
// ≠ attribute — and the shapes that must fall back to pair evaluation:
// an ordering operator, a constant, a cross-attribute join, a one-tuple
// rule and an FD with an empty left-hand side.
func fdConstraints() []*dc.Constraint {
	var cs []*dc.Constraint
	cs = append(cs, dc.FD("fd1", []string{"A"}, []string{"B"})...)
	cs = append(cs, dc.FD("fd2", []string{"A", "C"}, []string{"D"})...)
	cs = append(cs, dc.FD("fd3", []string{"B", "C", "D"}, []string{"A"})...)
	cs = append(cs, dc.FD("fd4", []string{"A", "B"}, []string{"B"})...)
	for i, s := range []string{
		"t1&t2&EQ(t2.C,t1.C)&IQ(t1.A,t2.A)",
		"t1&t2&EQ(t1.A,t2.A)&LT(t1.B,t2.B)",
		"t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)&EQ(t1.C,\"x\")",
		"t1&t2&EQ(t1.A,t2.B)&IQ(t1.C,t2.C)",
		"t1&EQ(t1.A,\"y\")&IQ(t1.B,t1.C)",
		"t1&t2&IQ(t1.D,t2.D)",
	} {
		c := dc.MustParse(s)
		c.Name = fmt.Sprintf("r%d", i)
		cs = append(cs, c)
	}
	return cs
}

// TestFDBlocksMatchPairEvaluation is the oracle of the FD-shaped fast
// path: full detection and DetectDelta after random scripts of upserts,
// appends and swap-deletes equal NaiveDetect's pair-by-pair evaluation of
// the same relation, element for element and in order, with FD-shaped
// rules and fallback shapes side by side.
func TestFDBlocksMatchPairEvaluation(t *testing.T) {
	cs := fdConstraints()
	shaped := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := randomFDRelation(rng, 1+rng.Intn(40))
		det, err := NewDetector(ds, cs)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			for _, b := range det.Bounds() {
				if b.FDAttr >= 0 {
					shaped++
				}
			}
		}
		prev := det.Detect()
		requireNaive(t, fmt.Sprintf("seed %d full", seed), ds, cs, prev)
		for step := 0; step < 4; step++ {
			changed := make(map[int]bool)
			for k := rng.Intn(4); k >= 0; k-- {
				switch n := ds.NumTuples(); {
				case rng.Intn(3) == 0 || n == 0:
					changed[ds.Append(randomFDRow(rng))] = true
				case rng.Intn(3) == 0 && n > 1:
					tup := rng.Intn(n)
					ds.DeleteSwap(tup)
					delete(changed, n-1)
					if tup < n-1 {
						changed[tup] = true
					}
				default:
					tup := rng.Intn(n)
					ds.Set(tup, rng.Intn(len(fdAttrs)), ds.Dict().Intern(fdValues[rng.Intn(len(fdValues))]))
					changed[tup] = true
				}
			}
			det, err := NewDetector(ds, cs)
			if err != nil {
				t.Fatal(err)
			}
			prev = det.DetectDelta(prev, changed)
			requireNaive(t, fmt.Sprintf("seed %d step %d", seed, step), ds, cs, prev)
		}
	}
	if shaped != 5 {
		t.Errorf("%d FD-shaped rules, want 5: the fast path or a fallback is not exercised", shaped)
	}
}

func requireNaive(t *testing.T, what string, ds *dataset.Dataset, cs []*dc.Constraint, got []Violation) {
	t.Helper()
	want, err := NaiveDetect(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: detection differs from pair evaluation\n got %v\nwant %v", what, got, want)
	}
}
