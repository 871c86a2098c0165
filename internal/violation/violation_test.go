package violation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

func figure1Data() (*dataset.Dataset, []*dc.Constraint) {
	ds := dataset.New([]string{"DBAName", "Address", "City", "State", "Zip"})
	ds.Append([]string{"John Veliotis Sr.", "3465 S Morgan ST", "Chicago", "IL", "60609"})
	ds.Append([]string{"John Veliotis Sr.", "3465 S Morgan ST", "Chicago", "IL", "60608"})
	ds.Append([]string{"John Veliotis Sr.", "3465 S Morgan ST", "Chicago", "IL", "60609"})
	ds.Append([]string{"Johnnyo's", "3465 S Morgan ST", "Cicago", "IL", "60608"})
	var cs []*dc.Constraint
	cs = append(cs, dc.FD("c1", []string{"DBAName"}, []string{"Zip"})...)
	cs = append(cs, dc.FD("c2", []string{"Zip"}, []string{"City", "State"})...)
	return ds, cs
}

func TestDetectFigure1(t *testing.T) {
	ds, cs := figure1Data()
	det, err := NewDetector(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	viols := det.Detect()
	// c1 (DBAName→Zip): pairs among {t0,t1,t2} with differing zips:
	// (0,1), (1,2) — symmetric so each counted once.
	// c2 (Zip→City): zips 60608 on t1,t3 with different cities: (1,3).
	// c2.2 (Zip→State): none (all IL).
	byConstraint := map[int]int{}
	for _, v := range viols {
		byConstraint[v.Constraint]++
	}
	if byConstraint[0] != 2 {
		t.Errorf("c1 violations = %d, want 2", byConstraint[0])
	}
	if byConstraint[1] != 1 {
		t.Errorf("c2 violations = %d, want 1", byConstraint[1])
	}
	if byConstraint[2] != 0 {
		t.Errorf("c2.2 violations = %d, want 0", byConstraint[2])
	}
}

func TestDetectCanonicalPairs(t *testing.T) {
	ds, cs := figure1Data()
	det, _ := NewDetector(ds, cs)
	for _, v := range det.Detect() {
		if v.T2 < 0 {
			continue
		}
		if v.T1 >= v.T2 {
			// For symmetric constraints pairs must be canonical.
			t.Errorf("non-canonical symmetric pair (%d,%d)", v.T1, v.T2)
		}
	}
}

func TestDetectMatchesNaive(t *testing.T) {
	// Random datasets: the indexed detector must agree with the O(n²)
	// oracle exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := dataset.New([]string{"A", "B", "C"})
		vals := []string{"", "p", "q", "r"}
		n := 20 + rng.Intn(30)
		for i := 0; i < n; i++ {
			ds.Append([]string{vals[rng.Intn(4)], vals[rng.Intn(4)], vals[rng.Intn(4)]})
		}
		var cs []*dc.Constraint
		cs = append(cs, dc.FD("fd", []string{"A"}, []string{"B"})...)
		cs = append(cs, dc.MustParse("t1&t2&EQ(t1.B,t2.B)&IQ(t1.C,t2.C)"))
		det, err := NewDetector(ds, cs)
		if err != nil {
			return false
		}
		got := det.Detect()
		want, err := NaiveDetect(ds, cs)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		key := func(v Violation) string { return fmt.Sprintf("%d|%d|%d", v.Constraint, v.T1, v.T2) }
		seen := map[string]bool{}
		for _, v := range want {
			seen[key(v)] = true
		}
		for _, v := range got {
			if !seen[key(v)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDetectAsymmetricConstraint(t *testing.T) {
	ds := dataset.New([]string{"G", "V"})
	ds.Append([]string{"g", "1"})
	ds.Append([]string{"g", "2"})
	// ¬(g1=g2 ∧ v1<v2): ordered — only (0,1) violates, not (1,0).
	cs := []*dc.Constraint{dc.MustParse("t1&t2&EQ(t1.G,t2.G)&LT(t1.V,t2.V)")}
	det, _ := NewDetector(ds, cs)
	viols := det.Detect()
	if len(viols) != 1 || viols[0].T1 != 0 || viols[0].T2 != 1 {
		t.Errorf("asymmetric violations = %v, want [(0,1)]", viols)
	}
	naive, _ := NaiveDetect(ds, cs)
	if len(naive) != len(viols) {
		t.Errorf("naive disagreement: %v vs %v", naive, viols)
	}
}

func TestDetectSingleTuple(t *testing.T) {
	ds := dataset.New([]string{"State"})
	ds.Append([]string{"IL"})
	ds.Append([]string{"XX"})
	cs := []*dc.Constraint{dc.MustParse(`t1&EQ(t1.State,"XX")`)}
	det, _ := NewDetector(ds, cs)
	viols := det.Detect()
	if len(viols) != 1 || viols[0].T1 != 1 || viols[0].T2 != -1 {
		t.Errorf("single-tuple violations = %v", viols)
	}
}

func TestCells(t *testing.T) {
	ds, cs := figure1Data()
	det, _ := NewDetector(ds, cs)
	viols := det.Detect()
	for _, v := range viols {
		cells := det.Cells(v)
		if v.Constraint == 0 && len(cells) != 4 {
			// FD violation touches DBAName and Zip of both tuples.
			t.Errorf("c1 violation should touch 4 cells, got %d", len(cells))
		}
		for _, c := range cells {
			if c.Tuple != v.T1 && c.Tuple != v.T2 {
				t.Errorf("cell %v outside violating tuples", c)
			}
		}
	}
}

func TestHypergraph(t *testing.T) {
	ds, cs := figure1Data()
	det, _ := NewDetector(ds, cs)
	viols := det.Detect()
	h := BuildHypergraph(det, viols)
	if h.NumEdges() != len(viols) {
		t.Fatalf("edges = %d, want %d", h.NumEdges(), len(viols))
	}
	// t1.Zip (tuple 1) participates in c1 violations (0,1),(1,2) and c2
	// violation (1,3): degree 3.
	zip := ds.AttrIndex("Zip")
	if d := h.Degree(dataset.Cell{Tuple: 1, Attr: zip}); d != 3 {
		t.Errorf("degree(t1.Zip) = %d, want 3", d)
	}
	// All cells from EdgesOfConstraint must reference that constraint.
	for ci := 0; ci < h.NumConstraints(); ci++ {
		for _, ei := range h.EdgesOfConstraint(ci) {
			if h.Violations[ei].Constraint != ci {
				t.Errorf("EdgesOfConstraint(%d) returned edge of constraint %d", ci, h.Violations[ei].Constraint)
			}
		}
	}
	if h.EdgesOfConstraint(99) != nil {
		t.Errorf("out-of-range constraint should give nil")
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := dataset.New([]string{"A", "B"})
	cs := dc.FD("fd", []string{"A"}, []string{"B"})
	det, err := NewDetector(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if viols := det.Detect(); len(viols) != 0 {
		t.Errorf("empty dataset has no violations")
	}
}
