package compile

import (
	"strings"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/ddlog"
)

func small() (*dataset.Dataset, []*dc.Constraint) {
	ds := dataset.New([]string{"Name", "Zip", "City"})
	ds.Append([]string{"a", "60608", "Chicago"})
	ds.Append([]string{"a", "60609", "Chicago"})
	ds.Append([]string{"a", "60608", "Chicago"})
	ds.Append([]string{"b", "60610", "Chicago"})
	var cs []*dc.Constraint
	cs = append(cs, dc.FD("fd1", []string{"Name"}, []string{"Zip"})...)
	cs = append(cs, dc.FD("fd2", []string{"Zip"}, []string{"City"})...)
	return ds, cs
}

func TestCompilePipeline(t *testing.T) {
	ds, cs := small()
	comp, err := Compile(ds, cs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if comp.Detection.NumNoisy() == 0 {
		t.Errorf("conflicting zips should be flagged")
	}
	if comp.Grounded.Stats.QueryVars == 0 {
		t.Errorf("no query variables grounded")
	}
	if comp.Grounded.Graph.NumFactors() == 0 {
		t.Errorf("no factors grounded")
	}
	// DC Feats (default): no correlation factors on query variables.
	if comp.Grounded.Graph.HasNaryOnQuery() {
		t.Errorf("DC Feats variant must be an independent-variable model")
	}
}

func TestCompileVariants(t *testing.T) {
	ds, cs := small()
	for _, v := range []Variant{DCFactorsOnly, DCFactorsPartitioned, DCFeats, DCFeatsFactors, DCFeatsFactorsPartTwo} {
		opts := DefaultOptions()
		opts.Variant = v
		comp, err := Compile(ds, cs, opts)
		if err != nil {
			t.Fatalf("%s: %v", v.Name(), err)
		}
		hasNary := len(comp.Grounded.Graph.Naries) > 0
		if v.DCFactors && !hasNary {
			t.Errorf("%s: expected correlation factors", v.Name())
		}
		if !v.DCFactors && hasNary {
			t.Errorf("%s: unexpected correlation factors", v.Name())
		}
		if v.Partition && len(comp.Groups) == 0 {
			t.Errorf("%s: expected partition groups", v.Name())
		}
	}
}

func TestCompileVariantNames(t *testing.T) {
	if DCFeats.Name() != "DC Feats" {
		t.Errorf("name = %q", DCFeats.Name())
	}
	custom := Variant{DCFeatures: true, Partition: true}
	if !strings.Contains(custom.Name(), "custom") {
		t.Errorf("unknown combination should render as custom: %q", custom.Name())
	}
}

func TestCompileTauControlsDomains(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 300, Seed: 1})
	lo := DefaultOptions()
	lo.Tau = 0.3
	hi := DefaultOptions()
	hi.Tau = 0.9
	cLo, err := Compile(g.Dirty, g.Constraints, lo)
	if err != nil {
		t.Fatal(err)
	}
	cHi, err := Compile(g.Dirty, g.Constraints, hi)
	if err != nil {
		t.Fatal(err)
	}
	if cLo.Domains.TotalCandidates() < cHi.Domains.TotalCandidates() {
		t.Errorf("lower τ must not shrink domains: %d vs %d",
			cLo.Domains.TotalCandidates(), cHi.Domains.TotalCandidates())
	}
}

func TestCompileMatchesInjectDomains(t *testing.T) {
	g := datagen.Figure1()
	opts := DefaultOptions()
	opts.Dictionaries = g.Dictionaries
	opts.MatchDeps = g.MatchDeps
	comp, err := Compile(g.Dirty, g.Constraints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Matches) == 0 {
		t.Fatal("expected dictionary matches on the Figure 1 data")
	}
	// The matched zip 60608 must be in the domain of t1.Zip (init 60609).
	zip := g.Dirty.AttrIndex("Zip")
	dom := comp.Domains.Of(dataset.Cell{Tuple: 0, Attr: zip})
	found := false
	for _, v := range dom {
		if g.Dirty.Dict().String(v) == "60608" {
			found = true
		}
	}
	if !found {
		t.Errorf("matched value not injected into the domain")
	}
}

func TestCompileEvidenceRestricted(t *testing.T) {
	ds, cs := small()
	opts := DefaultOptions()
	opts.MaxEvidence = 100
	comp, err := Compile(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	noisyAttrs := map[int]bool{}
	for _, c := range comp.Detection.Noisy {
		noisyAttrs[c.Attr] = true
	}
	for vi, c := range comp.Grounded.Cells {
		if comp.Grounded.Graph.Vars[vi].Evidence {
			if !noisyAttrs[c.Attr] {
				t.Errorf("evidence cell %v outside noisy attributes", c)
			}
			if comp.Detection.IsNoisy(c) {
				t.Errorf("noisy cell %v used as evidence", c)
			}
		}
	}
}

func TestCompileProgramShape(t *testing.T) {
	ds, cs := small()
	opts := DefaultOptions()
	opts.Variant = DCFeatsFactors
	comp, err := Compile(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[ddlog.RuleKind]int{}
	for _, r := range comp.Program.Rules {
		kinds[r.Kind]++
	}
	if kinds[ddlog.RandomVariables] != 1 || kinds[ddlog.MinimalityFactors] != 1 {
		t.Errorf("program missing base rules: %v", kinds)
	}
	if kinds[ddlog.DCFactors] != len(cs) {
		t.Errorf("DC factor rules = %d, want %d", kinds[ddlog.DCFactors], len(cs))
	}
	if kinds[ddlog.RelaxedDCFactors] == 0 {
		t.Errorf("expected relaxed rules")
	}
	// Rendering is total.
	if text := comp.Program.Render(comp.Bounds); len(text) == 0 {
		t.Errorf("program failed to render")
	}
}

func TestCompileDisabledFeatures(t *testing.T) {
	ds, cs := small()
	opts := DefaultOptions()
	opts.DisableCooccurFeatures = true
	opts.DisableSourceFeatures = true
	comp, err := Compile(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Grounded.Graph.Softs) > 0 {
		// Only relaxed-DC softs may remain.
		for _, s := range comp.Grounded.Graph.Softs {
			key := comp.Grounded.Graph.Weights.Keys[s.Weight]
			if strings.HasPrefix(key, "cooc|") || strings.HasPrefix(key, "ccln|") || strings.HasPrefix(key, "freq|") {
				t.Errorf("statistics feature grounded despite being disabled: %s", key)
			}
		}
	}
}

func TestCompileEmptyNoisySet(t *testing.T) {
	ds := dataset.New([]string{"A", "B"})
	ds.Append([]string{"x", "1"})
	ds.Append([]string{"y", "2"})
	cs := dc.FD("fd", []string{"A"}, []string{"B"})
	comp, err := Compile(ds, cs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if comp.Grounded.Stats.QueryVars != 0 {
		t.Errorf("clean data should produce no query variables")
	}
}
