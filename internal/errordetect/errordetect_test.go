package errordetect

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/extdict"
	"holoclean/internal/stats"
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
	if v.LastHypergraph == nil {
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
	o := &Outliers{Stats: stats.Collect(ds)}
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
	o := &CondOutliers{Stats: stats.Collect(ds)}
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

// TestStatisticsDetectorsRequireStats: the statistics-based detectors read
// the pass's statistics and never collect their own; without them they
// fail the run with an error naming the detector.
func TestStatisticsDetectorsRequireStats(t *testing.T) {
	ds, _ := figure1()
	for _, d := range []Detector{&Outliers{}, &CondOutliers{}} {
		want := "errordetect: " + d.Name() + ": Stats is required"
		if _, err := d.Detect(ds); err == nil || err.Error() != want {
			t.Errorf("%s.Detect without Stats: err = %v, want %q", d.Name(), err, want)
		}
		if _, err := Run(ds, Nulls{}, d); err == nil || err.Error() != want {
			t.Errorf("Run with %s without Stats: err = %v, want %q", d.Name(), err, want)
		}
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
	det := &Dictionary{Matches: m.Apply(ds)}
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

// cellList is a plug-in detector that flags a fixed list of cells.
type cellList struct {
	name  string
	cells []dataset.Cell
}

func (d cellList) Name() string { return d.name }

func (d cellList) Detect(*dataset.Dataset) ([]dataset.Cell, error) { return d.cells, nil }

// TestRunUnionsOverlappingDetectors compares Run against the union it
// computed before the dense mask: collect into a set, sort by (tuple,
// attribute). Detectors overlap, repeat cells and report out of order.
func TestRunUnionsOverlappingDetectors(t *testing.T) {
	ds, cs := figure1()
	a := cellList{"a", []dataset.Cell{{Tuple: 3, Attr: 2}, {Tuple: 0, Attr: 1}, {Tuple: 3, Attr: 2}, {Tuple: 2, Attr: 0}}}
	b := cellList{"b", []dataset.Cell{{Tuple: 2, Attr: 0}, {Tuple: 3, Attr: 0}, {Tuple: 0, Attr: 1}}}
	viol := &Violations{Constraints: cs}
	res, err := Run(ds, a, viol, b, Nulls{})
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[dataset.Cell]bool)
	violCells, err := viol.Detect(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range [][]dataset.Cell{a.cells, violCells, b.cells} {
		for _, c := range cells {
			set[c] = true
		}
	}
	want := make([]dataset.Cell, 0, len(set))
	for c := range set {
		want = append(want, c)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Tuple != want[j].Tuple {
			return want[i].Tuple < want[j].Tuple
		}
		return want[i].Attr < want[j].Attr
	})
	if !slices.Equal(res.Noisy, want) {
		t.Errorf("Noisy = %v, want %v", res.Noisy, want)
	}
	for tu := 0; tu < ds.NumTuples(); tu++ {
		for at := 0; at < ds.NumAttrs(); at++ {
			if c := (dataset.Cell{Tuple: tu, Attr: at}); res.IsNoisy(c) != set[c] {
				t.Errorf("IsNoisy(%v) = %v, want %v", c, res.IsNoisy(c), set[c])
			}
		}
	}
}

// TestRunRejectsCellOutsideRelation: Detector is the package's extension
// point, so a plug-in that reports a cell the relation does not have must
// fail the run instead of reaching pruning as an out-of-range index.
func TestRunRejectsCellOutsideRelation(t *testing.T) {
	ds, _ := figure1()
	for _, c := range []dataset.Cell{
		{Tuple: ds.NumTuples(), Attr: 0},
		{Tuple: 0, Attr: ds.NumAttrs()},
		{Tuple: -1, Attr: 0},
		{Tuple: 0, Attr: -1},
	} {
		_, err := Run(ds, Nulls{}, cellList{"plug-in", []dataset.Cell{{Tuple: 1, Attr: 1}, c}})
		want := fmt.Sprintf("errordetect: detector %q flagged cell (%d,%d) outside the %d×%d relation",
			"plug-in", c.Tuple, c.Attr, ds.NumTuples(), ds.NumAttrs())
		if err == nil || err.Error() != want {
			t.Errorf("cell %v: err = %v, want %q", c, err, want)
		}
	}
}

// TestIsNoisyOutsideRelation: a session asks the previous pass's result
// about rows appended since; the answer is "not flagged", never a panic or
// a neighbouring row's flag.
func TestIsNoisyOutsideRelation(t *testing.T) {
	ds, _ := figure1()
	last := ds.NumTuples() - 1
	res, err := Run(ds, cellList{"all of the last row", []dataset.Cell{{Tuple: last, Attr: 0}, {Tuple: last, Attr: 1}, {Tuple: last, Attr: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []dataset.Cell{
		{Tuple: last + 1, Attr: 0},
		{Tuple: 1 << 20, Attr: 2},
		{Tuple: -1, Attr: 0},
		{Tuple: last - 1, Attr: ds.NumAttrs()}, // would alias (last, 0) in a flat index
		{Tuple: last + 1, Attr: -1},            // would alias (last, 2)
	} {
		if res.IsNoisy(c) {
			t.Errorf("IsNoisy(%v) = true for a cell outside the relation", c)
		}
	}
	if (&Result{}).IsNoisy(dataset.Cell{}) {
		t.Error("zero Result flags a cell")
	}
}
