package compile

import (
	"strings"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/ddlog"
	"holoclean/internal/errordetect"
	"holoclean/internal/stats"
)

// defaultOptions spells out the cleaner's defaults: compilation takes every
// option literally and has none of its own.
func defaultOptions() Options {
	return Options{
		Tau:              0.5,
		Variant:          DCFeats,
		MinimalityWeight: 0.5,
		DCWeight:         4.0,
		MaxEvidence:      2000,
		DictionaryPrior:  2.0,
		RelaxedDCPrior:   1.5,
		Seed:             1,
	}
}

// compiled is a prepared model, the detection result it was compiled over,
// and its whole-relation grounding.
type compiled struct {
	*Prepared
	Detection *errordetect.Result
	Grounded  *ddlog.Grounded
}

// withInputs fills in the inputs compilation requires — violation
// detection, statistics, clean-cell statistics — the way the cleaning pass
// produces them.
func withInputs(t testing.TB, ds *dataset.Dataset, cs []*dc.Constraint, opts Options) Options {
	t.Helper()
	viol := &errordetect.Violations{Constraints: cs}
	det, err := errordetect.Run(ds, viol)
	if err != nil {
		t.Fatal(err)
	}
	opts.Detection, opts.Hypergraph = det, viol.LastHypergraph
	opts.Stats = stats.Collect(ds)
	opts.MaskedStats = stats.CollectFiltered(ds, func(tu, a int) bool {
		return det.IsNoisy(dataset.Cell{Tuple: tu, Attr: a})
	})
	return opts
}

// prepare is the one way these tests reach a Prepared model: Prepare over
// withInputs.
func prepare(t testing.TB, ds *dataset.Dataset, cs []*dc.Constraint, opts Options) (*Prepared, *errordetect.Result) {
	t.Helper()
	opts = withInputs(t, ds, cs, opts)
	prep, err := Prepare(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prep, opts.Detection
}

// compileAll prepares the model and grounds the whole relation.
func compileAll(t testing.TB, ds *dataset.Dataset, cs []*dc.Constraint, opts Options) *compiled {
	t.Helper()
	prep, det := prepare(t, ds, cs, opts)
	g, err := ddlog.Ground(prep.DB, prep.Program, ddlog.Config{MaxScanCounterparts: opts.MaxScanCounterparts})
	if err != nil {
		t.Fatal(err)
	}
	return &compiled{Prepared: prep, Detection: det, Grounded: g}
}

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
	comp := compileAll(t, ds, cs, defaultOptions())
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
		opts := defaultOptions()
		opts.Variant = v
		comp := compileAll(t, ds, cs, opts)
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
	lo := defaultOptions()
	lo.Tau = 0.3
	hi := defaultOptions()
	hi.Tau = 0.9
	cLo := compileAll(t, g.Dirty, g.Constraints, lo)
	cHi := compileAll(t, g.Dirty, g.Constraints, hi)
	if cLo.Domains.TotalCandidates() < cHi.Domains.TotalCandidates() {
		t.Errorf("lower τ must not shrink domains: %d vs %d",
			cLo.Domains.TotalCandidates(), cHi.Domains.TotalCandidates())
	}
}

func TestCompileMatchesInjectDomains(t *testing.T) {
	g := datagen.Figure1()
	opts := defaultOptions()
	opts.Dictionaries = g.Dictionaries
	opts.MatchDeps = g.MatchDeps
	comp := compileAll(t, g.Dirty, g.Constraints, opts)
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
	opts := defaultOptions()
	opts.MaxEvidence = 100
	comp := compileAll(t, ds, cs, opts)
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
	opts := defaultOptions()
	opts.Variant = DCFeatsFactors
	comp := compileAll(t, ds, cs, opts)
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
	opts := defaultOptions()
	opts.DisableCooccurFeatures = true
	opts.DisableSourceFeatures = true
	comp := compileAll(t, ds, cs, opts)
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
	comp := compileAll(t, ds, cs, defaultOptions())
	if comp.Grounded.Stats.QueryVars != 0 {
		t.Errorf("clean data should produce no query variables")
	}
}

// TestPrepareRequiresInputs: compilation derives none of its inputs — a
// call without the detection result or the statistics is an error, never a
// fallback run of either (and never a panic).
func TestPrepareRequiresInputs(t *testing.T) {
	ds, cs := small()
	full := withInputs(t, ds, cs, defaultOptions())
	for name, strip := range map[string]func(*Options){
		"Detection":   func(o *Options) { o.Detection = nil },
		"Stats":       func(o *Options) { o.Stats = nil },
		"MaskedStats": func(o *Options) { o.MaskedStats = nil },
	} {
		opts := full
		strip(&opts)
		if _, err := Prepare(ds, cs, opts); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Prepare without %s: err = %v, want an error naming it", name, err)
		}
	}
	// Clean-cell statistics feed the co-occurrence features only.
	opts := full
	opts.MaskedStats, opts.DisableCooccurFeatures = nil, true
	if _, err := Prepare(ds, cs, opts); err != nil {
		t.Errorf("Prepare without MaskedStats and without co-occurrence features: %v", err)
	}
	if _, err := Prepare(ds, cs, Options{}); err == nil {
		t.Error("Prepare with zero options should fail")
	}
}

// TestPrepareTakesOptionsLiterally: a zero weight is a zero weight in the
// generated program and database, not a request for the default.
func TestPrepareTakesOptionsLiterally(t *testing.T) {
	ds, cs := small()
	opts := defaultOptions()
	opts.Variant = DCFeatsFactors
	opts.MinimalityWeight, opts.DCWeight, opts.DictionaryPrior, opts.RelaxedDCPrior = 0, 0, 0, 0
	prep, _ := prepare(t, ds, cs, opts)
	for _, r := range prep.Program.Rules {
		if (r.Kind == ddlog.MinimalityFactors || r.Kind == ddlog.DCFactors) && r.FixedWeight != 0 {
			t.Errorf("rule %s: fixed weight %v, want the 0 that was asked for", r.Name, r.FixedWeight)
		}
	}
	if prep.DB.DictPrior != 0 || prep.DB.RelaxedDCPrior != 0 {
		t.Errorf("priors = %v / %v, want 0 / 0", prep.DB.DictPrior, prep.DB.RelaxedDCPrior)
	}
	opts.MaxEvidence = 0
	if prep, _ := prepare(t, ds, cs, opts); len(prep.DB.Evidence) != 0 {
		t.Errorf("MaxEvidence 0 sampled %d evidence cells", len(prep.DB.Evidence))
	}
}
