package errordetect

import (
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/extdict"
)

func figure1() (*dataset.Dataset, []*dc.Constraint) {
	ds := dataset.New([]string{"DBAName", "City", "Zip"})
	ds.Append([]string{"John Veliotis Sr.", "Chicago", "60609"})
	ds.Append([]string{"John Veliotis Sr.", "Chicago", "60608"})
	ds.Append([]string{"John Veliotis Sr.", "Chicago", "60609"})
	ds.Append([]string{"Johnnyo's", "Cicago", "60608"})
	var cs []*dc.Constraint
	cs = append(cs, dc.FD("c1", []string{"DBAName"}, []string{"Zip"})...)
	cs = append(cs, dc.FD("c2", []string{"Zip"}, []string{"City"})...)
	return ds, cs
}

func TestViolationsDetector(t *testing.T) {
	ds, cs := figure1()
	v := &Violations{Constraints: cs}
	cells, err := v.Detect(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("expected violations")
	}
	if v.LastHypergraph == nil || v.LastDetector == nil {
		t.Errorf("detector should retain hypergraph for reuse")
	}
	// t4.DBAName participates in no violation (unique DBAName).
	for _, c := range cells {
		if c == (dataset.Cell{Tuple: 3, Attr: 0}) {
			t.Errorf("t4.DBAName should not be flagged by DC detection")
		}
	}
}

func TestRunUnionAndOrder(t *testing.T) {
	ds, cs := figure1()
	res, err := Run(ds, &Violations{Constraints: cs}, Nulls{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Noisy); i++ {
		a, b := res.Noisy[i-1], res.Noisy[i]
		if a.Tuple > b.Tuple || (a.Tuple == b.Tuple && a.Attr >= b.Attr) {
			t.Errorf("Noisy not in canonical order")
		}
	}
	if res.NumNoisy() != len(res.Noisy) {
		t.Errorf("NumNoisy inconsistent")
	}
	for _, c := range res.Noisy {
		if !res.IsNoisy(c) {
			t.Errorf("IsNoisy(%v) false for listed cell", c)
		}
	}
}

func TestOutliersDetector(t *testing.T) {
	ds := dataset.New([]string{"City"})
	for i := 0; i < 30; i++ {
		ds.Append([]string{"Chicago"})
	}
	ds.Append([]string{"Cicago"})   // rare near-duplicate → outlier
	ds.Append([]string{"New York"}) // rare but dissimilar → not an outlier
	o := &Outliers{}
	cells, err := o.Detect(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Tuple != 30 {
		t.Errorf("outliers = %v, want just the Cicago cell", cells)
	}
}

func TestCondOutliersDetector(t *testing.T) {
	// A value strongly contradicted by its context: aka=X predicts dba=A
	// in 3 of 4 rows; the fourth row's dba=B should be flagged.
	ds := dataset.New([]string{"DBA", "AKA"})
	ds.Append([]string{"A", "X"})
	ds.Append([]string{"A", "X"})
	ds.Append([]string{"A", "X"})
	ds.Append([]string{"B", "X"})
	for i := 0; i < 10; i++ {
		ds.Append([]string{"C", "Y"}) // background mass
	}
	o := &CondOutliers{}
	cells, err := o.Detect(ds)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cells {
		if c == (dataset.Cell{Tuple: 3, Attr: 0}) {
			found = true
		}
		if c.Tuple < 3 && c.Attr == 0 {
			t.Errorf("majority cells must not be flagged: %v", c)
		}
	}
	if !found {
		t.Errorf("conditional outlier not flagged; cells=%v", cells)
	}
}

func TestNullsDetector(t *testing.T) {
	ds := dataset.New([]string{"A", "B"})
	ds.Append([]string{"x", ""})
	ds.Append([]string{"", "y"})
	cells, err := Nulls{}.Detect(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Errorf("null cells = %v, want 2", cells)
	}
}

func TestDictionaryDetector(t *testing.T) {
	ds := dataset.New([]string{"City", "Zip"})
	ds.Append([]string{"Cicago", "60608"})
	ds.Append([]string{"Chicago", "60608"})
	d := extdict.NewDictionary("k", []string{"Ext_City", "Ext_Zip"})
	d.Append([]string{"Chicago", "60608"})
	m, err := extdict.NewMatcher(ds, []*extdict.Dictionary{d}, []*extdict.MatchDependency{{
		Name: "m1", Dict: "k",
		Conditions: []extdict.Term{{DataAttr: "Zip", DictAttr: "Ext_Zip"}},
		Conclusion: extdict.Term{DataAttr: "City", DictAttr: "Ext_City"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	det := &Dictionary{Matcher: m}
	cells, err := det.Detect(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0] != (dataset.Cell{Tuple: 0, Attr: 0}) {
		t.Errorf("dictionary detector = %v, want just t0.City", cells)
	}
}

func TestRunEmptyDetectors(t *testing.T) {
	ds, _ := figure1()
	res, err := Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumNoisy() != 0 {
		t.Errorf("no detectors should flag nothing")
	}
}
