package ddlog

import (
	"slices"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/extdict"
	"holoclean/internal/pruning"
)

// TestInertVariablesGroundNoFactors grounds every per-cell rule kind over a
// database mixing inert cells (one candidate), a Null-initial cell with one
// candidate, repairable cells and evidence cells (one of them with a
// single label), and checks the contract the pipeline's exactness rests on:
// inert variables exist — same ids, same Cells — but carry no unary or soft
// factor; everything else is grounded as before; and the two discounts that
// ask "could this sibling be the repair instead?" answer no for an inert
// sibling.
func TestInertVariablesGroundNoFactors(t *testing.T) {
	ds := dataset.New([]string{"Name", "Zip", "City"})
	ds.Append([]string{"a", "60608", "Chicago"})
	ds.Append([]string{"a", "60609", "Chicago"})
	ds.Append([]string{"a", "60608", "Chicago"})
	ds.Append([]string{"b", "70000", "Boston"})
	ds.Append([]string{"a", "", "Chicago"})
	const name, zip, city = 0, 1, 2
	bounds, err := dc.BindAll(dc.FD("fd", []string{"Name"}, []string{"Zip"}), ds)
	if err != nil {
		t.Fatal(err)
	}
	vals := func(ss ...string) []dataset.Value {
		out := make([]dataset.Value, len(ss))
		for i, s := range ss {
			v, ok := ds.Dict().Lookup(s)
			if !ok {
				t.Fatalf("value %q not in the dataset", s)
			}
			out[i] = v
		}
		slices.Sort(out)
		return out
	}
	cell := func(tu, a int) dataset.Cell { return dataset.Cell{Tuple: tu, Attr: a} }

	inert := []dataset.Cell{cell(0, name), cell(2, zip), cell(4, zip)}
	repairable := []dataset.Cell{cell(0, zip), cell(1, name), cell(1, zip)}
	evidence := []dataset.Cell{cell(3, zip), cell(3, city)}
	db := &Database{
		DS:     ds,
		Bounds: bounds,
		Domains: pruning.NewDomains(
			[]dataset.Cell{cell(0, name), cell(0, zip), cell(1, name), cell(1, zip), cell(2, zip), cell(4, zip)},
			[][]dataset.Value{vals("a"), vals("60608", "60609"), vals("a", "b"), vals("60608", "60609"), vals("60608"), vals("60608")},
		),
		Evidence:        evidence,
		EvidenceDomains: [][]dataset.Value{vals("60608", "70000"), vals("Boston")},
		Features:        func(dataset.Cell) []string { return []string{"f"} },
		SoftFeatures: func(_ dataset.Cell, dom []int32) []SoftFeature {
			return []SoftFeature{{Key: "soft", H: make([]float64, len(dom)), Init: 1}}
		},
		Matches: []extdict.Match{
			{Cell: cell(0, zip), Value: "60608", Dict: "k", CondCells: []dataset.Cell{cell(0, name)}}, // keyed on an inert cell
			{Cell: cell(1, zip), Value: "60608", Dict: "k", CondCells: []dataset.Cell{cell(1, name)}}, // keyed on a repairable cell
			{Cell: cell(2, zip), Value: "60608", Dict: "k"},                                           // on an inert cell
			{Cell: cell(3, zip), Value: "70000", Dict: "k"},                                           // on an evidence cell
		},
		DictPrior:      2,
		RelaxedDCPrior: 1.5,
	}
	variablesOnly := &Program{}
	variablesOnly.Add(&Rule{Kind: RandomVariables})
	bare, err := Ground(db, variablesOnly, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: FeatureFactors})
	prog.Add(&Rule{Kind: MatchedFactors})
	prog.Add(&Rule{Kind: MinimalityFactors, FixedWeight: 0.5})
	prog.Add(&Rule{Kind: RelaxedDCFactors, Name: "fd@zip", Constraint: 0, Head: CellRef{TupleVar: 0, Attr: zip}})
	g, err := Ground(db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// The variables are those of a grounding with no factor rule at all.
	wantCells := append(slices.Clone(db.Domains.Cells), evidence...)
	if !slices.Equal(g.Cells, wantCells) || !slices.Equal(bare.Cells, wantCells) {
		t.Fatalf("Cells = %v (variables only: %v), want %v", g.Cells, bare.Cells, wantCells)
	}
	if g.Stats.QueryVars != 6 || g.Stats.EvidenceVars != 2 {
		t.Fatalf("%d query + %d evidence variables, want 6 + 2", g.Stats.QueryVars, g.Stats.EvidenceVars)
	}
	for i, c := range wantCells {
		if v, ok := g.VarOf.Get(c); !ok || v != int32(i) {
			t.Errorf("VarOf(%v) = %d, %v; want %d", c, v, ok, i)
		}
		if !slices.Equal(g.Graph.Vars[i].Domain, bare.Graph.Vars[i].Domain) || g.Graph.Vars[i].Obs != bare.Graph.Vars[i].Obs {
			t.Errorf("variable %d (%v) differs from the variables-only grounding", i, c)
		}
	}
	if v, _ := g.VarOf.Get(cell(4, zip)); g.Graph.Vars[v].Obs != -1 {
		t.Errorf("the Null-initial cell has Obs %d, want -1", g.Graph.Vars[v].Obs)
	}

	factorsOf := func(c dataset.Cell) (unaryKeys, softKeys []string) {
		v, _ := g.VarOf.Get(c)
		for _, u := range g.Graph.Unaries {
			if u.Var == v {
				unaryKeys = append(unaryKeys, g.Graph.Weights.Keys[u.Weight])
			}
		}
		for _, s := range g.Graph.Softs {
			if s.Var == v {
				softKeys = append(softKeys, g.Graph.Weights.Keys[s.Weight])
			}
		}
		return unaryKeys, softKeys
	}
	for _, c := range inert {
		if u, s := factorsOf(c); len(u)+len(s) != 0 {
			t.Errorf("inert cell %v carries factors: unary %v, soft %v", c, u, s)
		}
	}
	for _, c := range repairable {
		u, s := factorsOf(c)
		if !slices.Contains(u, "prior|minimality") || !slices.Contains(s, "soft") || len(u) < 3 {
			t.Errorf("repairable cell %v lost factors: unary %v, soft %v", c, u, s)
		}
	}
	// Evidence keeps its factors whatever its domain size: they are what
	// learning fits. (Minimality never applied to evidence.)
	for _, c := range evidence {
		v, _ := g.VarOf.Get(c)
		u, s := factorsOf(c)
		if len(u) < len(g.Graph.Vars[v].Domain) || !slices.Contains(s, "soft") {
			t.Errorf("evidence cell %v lost factors: unary %v, soft %v", c, u, s)
		}
	}
	if u, _ := factorsOf(cell(3, zip)); !slices.Contains(u, "dict|k") {
		t.Errorf("evidence cell lost its dictionary match: %v", u)
	}

	// Weak dictionary evidence: a match keyed on an inert cell keeps the full
	// prior, one keyed on a repairable cell is discounted.
	w := g.Graph.Weights
	if u, _ := factorsOf(cell(0, zip)); !slices.Contains(u, "dict|k") || slices.Contains(u, "dict|k|weak") {
		t.Errorf("match keyed on an inert cell: unary keys %v, want dict|k", u)
	}
	if u, _ := factorsOf(cell(1, zip)); !slices.Contains(u, "dict|k|weak") || slices.Contains(u, "dict|k") {
		t.Errorf("match keyed on a repairable cell: unary keys %v, want dict|k|weak", u)
	}
	if id := slices.Index(w.Keys, "dict|k|weak"); id < 0 || w.W[id] != 1 {
		t.Errorf("weak dictionary weight %d, want one starting at half the prior of 2", id)
	}

	// Trust scale: t0's join cell (Name) is inert, so its conflict context is
	// taken at face value; t1's is repairable, so its testimony is halved.
	// Both cells see three counterparts on Name = a (one with a Null zip).
	rdc := func(c dataset.Cell) []float64 {
		v, _ := g.VarOf.Get(c)
		for _, s := range g.Graph.Softs {
			if s.Var == v && w.Keys[s.Weight] == "rdc|fd@zip" {
				return s.H
			}
		}
		t.Fatalf("no relaxed-DC factor on %v", c)
		return nil
	}
	// vals sorts by label: index 0 is 60608, index 1 is 60609.
	if h := rdc(cell(0, zip)); h[0] != -1.0/3 || h[1] != -1.0/3 {
		t.Errorf("t0.Zip relaxed-DC h = %v, want one violating counterpart of three per candidate at full trust", h)
	}
	if h := rdc(cell(1, zip)); h[0] != 0 || h[1] != -0.5*2/3 {
		t.Errorf("t1.Zip relaxed-DC h = %v, want [0, two of three at half trust]", h)
	}
}
