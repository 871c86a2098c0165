package ddlog

import (
	"slices"
	"strings"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/extdict"
	"holoclean/internal/factor"
	"holoclean/internal/pruning"
	"holoclean/internal/stats"
)

// fixture builds a small dirty dataset with one FD and pruned domains for
// the conflicting zip cells.
type fixture struct {
	ds     *dataset.Dataset
	bounds []*dc.Bound
	db     *Database
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ds := dataset.New([]string{"Name", "Zip"})
	ds.Append([]string{"a", "60608"})
	ds.Append([]string{"a", "60609"})
	ds.Append([]string{"a", "60608"})
	ds.Append([]string{"b", "70000"})
	cs := dc.FD("fd", []string{"Name"}, []string{"Zip"})
	bounds, err := dc.BindAll(cs, ds)
	if err != nil {
		t.Fatal(err)
	}
	st := stats.Collect(ds)
	noisy := []dataset.Cell{
		{Tuple: 0, Attr: 1}, {Tuple: 1, Attr: 1}, {Tuple: 2, Attr: 1},
	}
	domains := pruning.Compute(ds, st, noisy, pruning.Config{Tau: 0.2})
	return &fixture{
		ds:     ds,
		bounds: bounds,
		db: &Database{
			DS:      ds,
			Bounds:  bounds,
			Domains: domains,
		},
	}
}

func TestGroundVariables(t *testing.T) {
	fx := newFixture(t)
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats.QueryVars != 3 {
		t.Fatalf("query vars = %d, want 3", g.Stats.QueryVars)
	}
	for vi, c := range g.Cells {
		v := &g.Graph.Vars[vi]
		if v.Obs < 0 {
			t.Errorf("cell %v: initial value should be in domain", c)
		}
		if int32(fx.ds.Get(c.Tuple, c.Attr)) != v.Domain[v.Obs] {
			t.Errorf("cell %v: Obs points at the wrong label", c)
		}
	}
}

func TestGroundMinimality(t *testing.T) {
	fx := newFixture(t)
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: MinimalityFactors, FixedWeight: 0.9})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Graph.Unaries) != 3 {
		t.Fatalf("minimality factors = %d, want 3", len(g.Graph.Unaries))
	}
	for _, u := range g.Graph.Unaries {
		if u.Target != g.Graph.Vars[u.Var].Obs {
			t.Errorf("minimality factor must target the initial value")
		}
		if !g.Graph.Weights.Fixed[u.Weight] || g.Graph.Weights.W[u.Weight] != 0.9 {
			t.Errorf("minimality weight must be fixed at the configured value")
		}
	}
}

func TestGroundFeatures(t *testing.T) {
	fx := newFixture(t)
	fx.db.Features = func(c dataset.Cell, dst []factor.Tie) []factor.Tie {
		return append(dst, factor.Tie{Family: TieFeature, C: 1, D: 1}, factor.Tie{Family: TieFeature, C: 2, D: 2})
	}
	fx.db.SoftFeatures = func(c dataset.Cell, dom []int32, buf *SoftBuf) {
		buf.Add(factor.Tie{Family: TieFusion}, buf.Vec(len(dom)), 0.7)
	}
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: FeatureFactors})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Unary indicators: per cell, |dom| × 2 features.
	wantUnary := 0
	for vi := range g.Cells {
		wantUnary += len(g.Graph.Vars[vi].Domain) * 2
	}
	if len(g.Graph.Unaries) != wantUnary {
		t.Errorf("feature factors = %d, want %d", len(g.Graph.Unaries), wantUnary)
	}
	if len(g.Graph.Softs) != 3 {
		t.Errorf("soft factors = %d, want 3", len(g.Graph.Softs))
	}
	// Soft init respected.
	sw := g.Graph.Softs[0].Weight
	if g.Graph.Weights.W[sw] != 0.7 {
		t.Errorf("soft init weight = %v", g.Graph.Weights.W[sw])
	}
}

func TestGroundMatches(t *testing.T) {
	fx := newFixture(t)
	fx.db.Matches = []extdict.Match{
		{Cell: dataset.Cell{Tuple: 1, Attr: 1}, Value: "60608", Dict: "k"},
		{Cell: dataset.Cell{Tuple: 1, Attr: 1}, Value: "99999", Dict: "k"}, // not in domain
		{Cell: dataset.Cell{Tuple: 3, Attr: 1}, Value: "60608", Dict: "k"}, // not a variable
	}
	fx.db.DictPrior = 1.8
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: MatchedFactors})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Graph.Unaries) != 1 {
		t.Fatalf("matched factors = %d, want 1 (out-of-domain and non-variable skipped)", len(g.Graph.Unaries))
	}
	u := g.Graph.Unaries[0]
	if g.Graph.Weights.Key(u.Weight) != "dict|k" || g.Graph.Weights.W[u.Weight] != 1.8 {
		t.Errorf("dictionary weight wrong: %v", g.Graph.Weights.W[u.Weight])
	}
}

func TestGroundDCFactors(t *testing.T) {
	fx := newFixture(t)
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: DCFactors, Name: "fd", Constraint: 0, FixedWeight: 3})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Graph.Naries) == 0 {
		t.Fatal("expected grounded DC factors")
	}
	// Factors must only touch query variables; evidence and clean cells
	// are folded into constants.
	for i := range g.Graph.Naries {
		f := &g.Graph.Naries[i]
		if len(g.Graph.NaryVars(f)) == 0 || len(g.Graph.NaryPreds(f)) == 0 {
			t.Errorf("degenerate factor: %+v", f)
		}
		for _, v := range g.Graph.NaryVars(f) {
			if g.Graph.Vars[v].Evidence {
				t.Errorf("DC factor touches evidence variable")
			}
		}
	}
	// Tuple 3 (name "b") conflicts with nobody; no factor may involve it.
	for i := range g.Graph.Naries {
		for _, v := range g.Graph.NaryVars(&g.Graph.Naries[i]) {
			if g.Cells[v].Tuple == 3 {
				t.Errorf("tuple 3 should not be grounded")
			}
		}
	}
	if g.Stats.PaperFactors <= 0 {
		t.Errorf("grounding stats not populated: %+v", g.Stats)
	}
}

func TestGroundDCFactorSemantics(t *testing.T) {
	// Ground and verify the factor's h by brute force. The factor encodes
	// ¬(name=name ∧ zip≠zip) with the (clean, equal) names folded away:
	// equal zips satisfy the FD (h=+1), differing zips violate it (h=−1).
	fx := newFixture(t)
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: DCFactors, Name: "fd", Constraint: 0, FixedWeight: 3})
	g, _ := Ground(fx.db, prog, Config{})
	gr := g.Graph
	gr.Freeze()
	setTo := func(v int32, label int32) bool {
		for d, l := range gr.Vars[v].Domain {
			if l == label {
				gr.Vars[v].Assign = int32(d)
				return true
			}
		}
		return false
	}
	checked := false
	// h of v0's incident factor ni under the current assignment.
	hNow := func(v0, ni int32) float64 {
		h := make([]float64, len(gr.Vars[v0].Domain))
		gr.NaryH(v0, slices.Index(gr.IncidentNaries(v0), ni), nil, h)
		return h[gr.Vars[v0].Assign]
	}
	for i := range gr.Naries {
		vars := gr.NaryVars(&gr.Naries[i])
		if len(vars) != 2 {
			continue
		}
		v0, v1 := vars[0], vars[1]
		var common, other0, other1 int32 = -1, -1, -1
		for _, l0 := range gr.Vars[v0].Domain {
			for _, l1 := range gr.Vars[v1].Domain {
				if l0 == l1 {
					common = l0
				} else {
					other0, other1 = l0, l1
				}
			}
		}
		if common >= 0 {
			setTo(v0, common)
			setTo(v1, common)
			if h := hNow(v0, int32(i)); h != 1 {
				t.Errorf("equal zips satisfy the FD, h=%v", h)
			}
			checked = true
		}
		if other0 >= 0 && setTo(v0, other0) && setTo(v1, other1) {
			if h := hNow(v0, int32(i)); h != -1 {
				t.Errorf("differing zips violate the FD, h=%v", h)
			}
			checked = true
		}
	}
	if !checked {
		t.Fatal("no two-variable factor exercised")
	}
}

func TestGroundRelaxedDC(t *testing.T) {
	fx := newFixture(t)
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	// Head on t1.Zip (attr 1).
	prog.Add(&Rule{Kind: RelaxedDCFactors, Name: "fd@zip", Constraint: 0, Head: CellRef{TupleVar: 0, Attr: 1}})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Graph.Softs) == 0 {
		t.Fatal("expected relaxed soft factors")
	}
	// For tuple 1 (zip 60609, conflicting with 60608 ×2): candidate
	// 60608 violates nothing (counterparts hold 60608); candidate 60609
	// violates both counterparts.
	v1, _ := g.VarOf.Get(dataset.Cell{Tuple: 1, Attr: 1})
	var soft *SoftFeature
	for i := range g.Graph.Softs {
		s := &g.Graph.Softs[i]
		if s.Var == v1 {
			soft = &SoftFeature{H: g.Graph.SoftH(s)}
		}
	}
	if soft == nil {
		t.Fatal("no relaxed factor on the conflicted cell")
	}
	dom := g.Graph.Vars[v1].Domain
	for d, label := range dom {
		vs := fx.ds.Dict().String(dataset.Value(label))
		switch vs {
		case "60609":
			if soft.H[d] >= 0 {
				t.Errorf("60609 should be discouraged, h=%v", soft.H[d])
			}
		case "60608":
			if soft.H[d] != 0 {
				t.Errorf("60608 violates nothing, h=%v", soft.H[d])
			}
		}
	}
}

func TestProgramRendering(t *testing.T) {
	fx := newFixture(t)
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: FeatureFactors})
	prog.Add(&Rule{Kind: MatchedFactors})
	prog.Add(&Rule{Kind: MinimalityFactors, FixedWeight: 1})
	prog.Add(&Rule{Kind: DCFactors, Name: "fd", Constraint: 0, FixedWeight: 4})
	prog.Add(&Rule{Kind: RelaxedDCFactors, Name: "fd@zip", Constraint: 0, Head: CellRef{TupleVar: 0, Attr: 1}})
	text := prog.Render(fx.bounds)
	for _, want := range []string{
		"Value?(t, a, d) :- Domain(t, a, d)",
		"HasFeature(t, a, f)",
		"Matched(t, a, d, k)",
		"InitValue(t, a, d)",
		"!(Value?(t1, a0, x0)",
		"!Value?(t1, a1, v)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered program missing %q:\n%s", want, text)
		}
	}
}

func TestCellRefs(t *testing.T) {
	fx := newFixture(t)
	refs := fx.bounds[0].Refs
	// FD Name→Zip references t1.Name, t2.Name, t1.Zip, t2.Zip.
	if len(refs) != 4 {
		t.Errorf("CellRefs = %v, want 4 refs", refs)
	}
}

func TestGroundEvidence(t *testing.T) {
	fx := newFixture(t)
	fx.db.Evidence = []dataset.Cell{{Tuple: 3, Attr: 1}}
	fx.db.EvidenceDomains = [][]dataset.Value{fx.ds.ActiveDomain(1)}
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats.EvidenceVars != 1 {
		t.Fatalf("evidence vars = %d, want 1", g.Stats.EvidenceVars)
	}
	ev, _ := g.VarOf.Get(dataset.Cell{Tuple: 3, Attr: 1})
	if !g.Graph.Vars[ev].Evidence {
		t.Errorf("cell should be evidence")
	}
	if g.Graph.Vars[ev].Domain[g.Graph.Vars[ev].Obs] != int32(fx.ds.Get(3, 1)) {
		t.Errorf("evidence Obs mismatch")
	}
}

func TestOpCodesAligned(t *testing.T) {
	// The factor package mirrors dc.Op by value; a drift would silently
	// corrupt grounded predicates.
	pairs := []struct {
		d dc.Op
		f uint8
	}{
		{dc.Eq, 0}, {dc.Neq, 1}, {dc.Lt, 2}, {dc.Gt, 3}, {dc.Leq, 4}, {dc.Geq, 5}, {dc.Sim, 6},
	}
	for _, p := range pairs {
		if uint8(p.d) != p.f {
			t.Fatalf("op code drift: dc %v = %d, factor %d", p.d, uint8(p.d), p.f)
		}
	}
}
