package holoclean

import (
	"strings"
	"testing"

	"holoclean/internal/datagen"
)

func TestExplain(t *testing.T) {
	ds, cs := smallDirty()
	ex, err := New(DefaultOptions()).Explain(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NoisyCells == 0 || ex.QueryVariables == 0 || ex.Factors == 0 {
		t.Errorf("explanation incomplete: %+v", ex)
	}
	if !strings.Contains(ex.Program, "Value?(t, a, d) :- Domain(t, a, d)") {
		t.Errorf("program missing random-variable rule:\n%s", ex.Program)
	}
	if !strings.Contains(ex.Program, "InitValue(t, a, d)") {
		t.Errorf("program missing minimality rule")
	}
	if !strings.Contains(ex.Program, "!Value?") {
		t.Errorf("program missing relaxed DC rules")
	}
	if s := ex.String(); !strings.Contains(s, "program:") {
		t.Errorf("String rendering incomplete")
	}
}

func TestExplainVariantChangesProgram(t *testing.T) {
	ds, cs := smallDirty()
	feats := DefaultOptions()
	factors := DefaultOptions()
	factors.Variant = VariantDCFactors
	e1, err := New(feats).Explain(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(factors).Explain(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e2.Program, "!(") {
		t.Errorf("DC Factors program missing Algorithm 1 heads:\n%s", e2.Program)
	}
	if e1.Program == e2.Program {
		t.Errorf("variants should compile different programs")
	}
}

// TestExplainMatchesClean: Explain runs the pass's own stages, so with
// every detector on — outliers and the dictionary detector flag cells no
// constraint does — it sizes the model Clean builds, not a private one.
func TestExplainMatchesClean(t *testing.T) {
	g := datagen.Food(datagen.Config{Tuples: 150, Seed: 3})
	opts := DefaultOptions()
	opts.OutlierDetection = true
	opts.Dictionaries, opts.MatchDependencies = g.Dictionaries, g.MatchDeps
	if len(opts.MatchDependencies) == 0 {
		t.Fatal("fixture carries no dictionary")
	}
	ex, err := New(opts).Explain(g.Dirty, g.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(opts).Clean(g.Dirty, g.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NoisyCells != res.Stats.NoisyCells {
		t.Errorf("Explain NoisyCells = %d, Clean flagged %d", ex.NoisyCells, res.Stats.NoisyCells)
	}
	if ex.QueryVariables != res.Stats.QueryVars {
		t.Errorf("Explain QueryVariables = %d, Clean inferred %d", ex.QueryVariables, res.Stats.QueryVars)
	}
	if ex.EvidenceVariables != res.Stats.EvidenceVars {
		t.Errorf("Explain EvidenceVariables = %d, Clean learned from %d", ex.EvidenceVariables, res.Stats.EvidenceVars)
	}
}

func TestExplainNoSignals(t *testing.T) {
	ds, _ := smallDirty()
	if _, err := New(DefaultOptions()).Explain(ds, nil); err == nil {
		t.Errorf("Explain without signals should fail")
	}
}

// TestRepairsOnlyTouchFlaggedCells: an invariant of the whole pipeline —
// MAP repairs can only land on cells error detection flagged.
func TestRepairsOnlyTouchFlaggedCells(t *testing.T) {
	ds, cs := smallDirty()
	res, err := New(DefaultOptions()).Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	diff := ds.Diff(res.Repaired)
	for _, c := range diff {
		if res.MarginalOf(c) == nil {
			t.Errorf("cell %v changed without being a query variable", c)
		}
	}
	if len(diff) != len(res.Repairs) {
		t.Errorf("Diff (%d) and Repairs (%d) disagree", len(diff), len(res.Repairs))
	}
}

// TestRepairReducesViolations: with the DC Factors variant the soft
// constraints should drive the repaired dataset toward consistency.
func TestRepairReducesViolations(t *testing.T) {
	ds, cs := smallDirty()
	countViolations := func(d *Dataset) int {
		det := &violationsCounter{}
		return det.count(t, d, cs)
	}
	before := countViolations(ds)
	opts := DefaultOptions()
	opts.Variant = VariantDCFeatsFactors
	res, err := New(opts).Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	after := countViolations(res.Repaired)
	if after > before {
		t.Errorf("repair increased violations: %d -> %d", before, after)
	}
}
