package extdict

import (
	"testing"

	"holoclean/internal/dataset"
)

func chicagoSetup() (*dataset.Dataset, *Dictionary, []*MatchDependency) {
	ds := dataset.New([]string{"Address", "City", "State", "Zip"})
	ds.Append([]string{"3465 S Morgan ST", "Chicago", "IL", "60609"}) // wrong zip
	ds.Append([]string{"3465 S Morgan ST", "Cicago", "IL", "60608"})  // misspelled city
	ds.Append([]string{"1208 N Wells ST", "Chicago", "IL", "60610"})  // clean
	ds.Append([]string{"unknown addr", "Chicago", "IL", ""})          // no coverage

	d := NewDictionary("chicago", []string{"Ext_Address", "Ext_City", "Ext_State", "Ext_Zip"})
	d.Append([]string{"3465 S Morgan ST", "Chicago", "IL", "60608"})
	d.Append([]string{"1208 N Wells ST", "Chicago", "IL", "60610"})
	d.Append([]string{"259 E Erie ST", "Chicago", "IL", "60611"})

	mds := []*MatchDependency{
		{
			Name: "m1", Dict: "chicago",
			Conditions: []Term{{DataAttr: "Zip", DictAttr: "Ext_Zip"}},
			Conclusion: Term{DataAttr: "City", DictAttr: "Ext_City"},
		},
		{
			Name: "m3", Dict: "chicago",
			Conditions: []Term{
				{DataAttr: "City", DictAttr: "Ext_City", Approx: true},
				{DataAttr: "State", DictAttr: "Ext_State"},
				{DataAttr: "Address", DictAttr: "Ext_Address"},
			},
			Conclusion: Term{DataAttr: "Zip", DictAttr: "Ext_Zip"},
		},
	}
	return ds, d, mds
}

func TestApplyMatches(t *testing.T) {
	ds, d, mds := chicagoSetup()
	m, err := NewMatcher(ds, []*Dictionary{d}, mds)
	if err != nil {
		t.Fatal(err)
	}
	matches := m.Apply(ds)
	zip := ds.AttrIndex("Zip")
	city := ds.AttrIndex("City")

	// m3 must suggest 60608 for tuple 0's zip (address+state match, city
	// exact) and for tuple 1 (city ≈ Cicago).
	want := map[dataset.Cell]string{
		{Tuple: 0, Attr: zip}: "60608",
		{Tuple: 1, Attr: zip}: "60608",
	}
	found := map[dataset.Cell]string{}
	for _, mt := range matches {
		if mt.Cell.Attr == zip {
			found[mt.Cell] = mt.Value
		}
	}
	for c, v := range want {
		if found[c] != v {
			t.Errorf("zip suggestion for %v = %q, want %q", c, found[c], v)
		}
	}
	// m1: tuple 1 has zip 60608 → city suggestion "Chicago".
	gotCity := false
	for _, mt := range matches {
		if mt.Cell == (dataset.Cell{Tuple: 1, Attr: city}) && mt.Value == "Chicago" {
			gotCity = true
		}
	}
	if !gotCity {
		t.Errorf("m1 should suggest Chicago for tuple 1")
	}
	// Tuple 3 has no zip and unknown address: no zip-conditioned match.
	for _, mt := range matches {
		if mt.Cell.Tuple == 3 {
			t.Errorf("tuple 3 should have no matches, got %+v", mt)
		}
	}
}

func TestMatcherValidation(t *testing.T) {
	ds, d, _ := chicagoSetup()
	bad := []*MatchDependency{{
		Name: "x", Dict: "missing",
		Conditions: []Term{{DataAttr: "Zip", DictAttr: "Ext_Zip"}},
		Conclusion: Term{DataAttr: "City", DictAttr: "Ext_City"},
	}}
	if _, err := NewMatcher(ds, []*Dictionary{d}, bad); err == nil {
		t.Errorf("unknown dictionary should fail")
	}
	bad2 := []*MatchDependency{{
		Name: "x", Dict: "chicago",
		Conditions: []Term{{DataAttr: "Nope", DictAttr: "Ext_Zip"}},
		Conclusion: Term{DataAttr: "City", DictAttr: "Ext_City"},
	}}
	if _, err := NewMatcher(ds, []*Dictionary{d}, bad2); err == nil {
		t.Errorf("unknown dataset attribute should fail")
	}
	bad3 := []*MatchDependency{{
		Name: "x", Dict: "chicago",
		Conclusion: Term{DataAttr: "City", DictAttr: "Ext_City"},
	}}
	if _, err := NewMatcher(ds, []*Dictionary{d}, bad3); err == nil {
		t.Errorf("dependency without conditions should fail")
	}
}

func TestDetectErrors(t *testing.T) {
	ds, d, mds := chicagoSetup()
	m, _ := NewMatcher(ds, []*Dictionary{d}, mds)
	matches := m.Apply(ds)
	errs := DetectErrors(ds, matches)
	zip := ds.AttrIndex("Zip")
	// Tuple 0's zip contradicts the suggestion; tuple 2 agrees everywhere.
	foundT0 := false
	for _, c := range errs {
		if c == (dataset.Cell{Tuple: 0, Attr: zip}) {
			foundT0 = true
		}
		if c.Tuple == 2 {
			t.Errorf("clean tuple 2 flagged: %v", c)
		}
	}
	if !foundT0 {
		t.Errorf("tuple 0 zip should be flagged")
	}
}

func TestDictionaryAppendPanics(t *testing.T) {
	d := NewDictionary("d", []string{"A", "B"})
	defer func() {
		if recover() == nil {
			t.Errorf("wrong-arity Append should panic")
		}
	}()
	d.Append([]string{"only"})
}

func TestNoExactConditionFallsBackToScan(t *testing.T) {
	// A dependency whose only condition is approximate cannot be hash
	// indexed; the matcher must still find matches by scanning.
	ds := dataset.New([]string{"City", "State"})
	ds.Append([]string{"Cicago", "IL"})
	d := NewDictionary("k", []string{"Ext_City", "Ext_State"})
	d.Append([]string{"Chicago", "IL"})
	mds := []*MatchDependency{{
		Name: "m", Dict: "k",
		Conditions: []Term{{DataAttr: "City", DictAttr: "Ext_City", Approx: true}},
		Conclusion: Term{DataAttr: "State", DictAttr: "Ext_State"},
	}}
	m, err := NewMatcher(ds, []*Dictionary{d}, mds)
	if err != nil {
		t.Fatal(err)
	}
	matches := m.Apply(ds)
	if len(matches) != 1 || matches[0].Value != "IL" {
		t.Errorf("approx-only matching failed: %+v", matches)
	}
}
