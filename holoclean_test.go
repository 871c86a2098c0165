package holoclean

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func smallDirty() (*Dataset, []*Constraint) {
	ds := NewDataset([]string{"Name", "Zip", "City"})
	ds.Append([]string{"a", "60608", "Chicago"})
	ds.Append([]string{"a", "60609", "Chicago"})
	ds.Append([]string{"a", "60608", "Chicago"})
	ds.Append([]string{"a", "60608", "Chicago"})
	ds.Append([]string{"b", "60610", "Springfield"})
	ds.Append([]string{"b", "60610", "Springfield"})
	var cs []*Constraint
	cs = append(cs, FD("fd1", []string{"Name"}, []string{"Zip"})...)
	cs = append(cs, FD("fd2", []string{"Zip"}, []string{"City"})...)
	return ds, cs
}

func TestCleanMinorityZip(t *testing.T) {
	ds, cs := smallDirty()
	res, err := New(DefaultOptions()).Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Repaired.GetString(1, 1); got != "60608" {
		t.Errorf("minority zip = %q, want 60608", got)
	}
	if len(res.Repairs) == 0 {
		t.Fatal("expected at least one repair")
	}
	r := res.Repairs[0]
	if r.Old == r.New {
		t.Errorf("repair with identical old/new")
	}
	if r.Probability <= 0 || r.Probability > 1 {
		t.Errorf("repair probability out of range: %v", r.Probability)
	}
}

func TestCleanDoesNotMutateInput(t *testing.T) {
	ds, cs := smallDirty()
	before := ds.Clone()
	if _, err := New(DefaultOptions()).Clean(ds, cs); err != nil {
		t.Fatal(err)
	}
	if !ds.Equal(before) {
		t.Errorf("Clean mutated the input dataset")
	}
}

func TestCleanNoSignalsError(t *testing.T) {
	ds, _ := smallDirty()
	if _, err := New(DefaultOptions()).Clean(ds, nil); err == nil {
		t.Errorf("cleaning without constraints or dependencies should fail")
	}
}

func TestMarginalsWellFormed(t *testing.T) {
	ds, cs := smallDirty()
	res, err := New(DefaultOptions()).Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Marginals) == 0 {
		t.Fatal("no marginals")
	}
	for c, dist := range res.Marginals {
		sum := 0.0
		for i, vp := range dist {
			sum += vp.P
			if i > 0 && dist[i-1].P < vp.P {
				t.Errorf("marginal of %v not sorted by probability", c)
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("marginal of %v sums to %v", c, sum)
		}
	}
}

func TestRunStatsPopulated(t *testing.T) {
	ds, cs := smallDirty()
	res, err := New(DefaultOptions()).Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.NoisyCells == 0 || s.QueryVars == 0 || s.Factors == 0 || s.Weights == 0 {
		t.Errorf("stats incomplete: %+v", s)
	}
	if s.TotalTime <= 0 || s.CompileTime <= 0 {
		t.Errorf("timings missing: %+v", s)
	}
}

func TestParseConstraintAPI(t *testing.T) {
	c, err := ParseConstraint("t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Predicates) != 2 {
		t.Errorf("predicates = %d", len(c.Predicates))
	}
	if _, err := ParseConstraint("garbage"); err == nil {
		t.Errorf("garbage should fail to parse")
	}
	cs, err := ParseConstraints(strings.NewReader("c1: t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)"))
	if err != nil || len(cs) != 1 {
		t.Fatalf("ParseConstraints: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustParseConstraint should panic on bad input")
		}
	}()
	MustParseConstraint("also garbage")
}

func TestReadCSVAPI(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("A,B\nx,1\ny,2\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumTuples() != 2 {
		t.Errorf("tuples = %d", ds.NumTuples())
	}
}

func TestCleanWithDictionary(t *testing.T) {
	ds := NewDataset([]string{"City", "Zip"})
	ds.Append([]string{"Cicago", "60608"})
	ds.Append([]string{"Chicago", "60608"})
	ds.Append([]string{"Chicago", "60608"})
	dict := NewDictionary("zips", []string{"Ext_City", "Ext_Zip"})
	dict.Append([]string{"Chicago", "60608"})
	opts := DefaultOptions()
	opts.Dictionaries = []*Dictionary{dict}
	opts.MatchDependencies = []*MatchDependency{{
		Name: "m1", Dict: "zips",
		Conditions: []MatchTerm{{DataAttr: "Zip", DictAttr: "Ext_Zip"}},
		Conclusion: MatchTerm{DataAttr: "City", DictAttr: "Ext_City"},
	}}
	res, err := New(opts).Clean(ds, FD("fd", []string{"Zip"}, []string{"City"}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Repaired.GetString(0, 0); got != "Chicago" {
		t.Errorf("dictionary-backed repair = %q, want Chicago", got)
	}
}

func TestCleanDeterministicBySeed(t *testing.T) {
	build := func() (*Dataset, []*Constraint) { return smallDirty() }
	ds1, cs1 := build()
	ds2, cs2 := build()
	r1, err := New(DefaultOptions()).Clean(ds1, cs1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(DefaultOptions()).Clean(ds2, cs2)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Repaired.Equal(r2.Repaired) {
		t.Errorf("same seed produced different repairs")
	}
	if len(r1.Repairs) != len(r2.Repairs) {
		t.Errorf("repair lists differ")
	}
}

func TestCleanAllVariants(t *testing.T) {
	for _, v := range []Variant{
		VariantDCFeats, VariantDCFactors, VariantDCFactorsPartitioned,
		VariantDCFeatsFactors, VariantDCFeatsFactorsPartitioned,
	} {
		ds, cs := smallDirty()
		opts := DefaultOptions()
		opts.Variant = v
		res, err := New(opts).Clean(ds, cs)
		if err != nil {
			t.Fatalf("%s: %v", v.Name(), err)
		}
		if res.Repaired == nil {
			t.Fatalf("%s: nil result", v.Name())
		}
	}
}

func TestMarginalOf(t *testing.T) {
	ds, cs := smallDirty()
	res, err := New(DefaultOptions()).Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	zip := ds.AttrIndex("Zip")
	if m := res.MarginalOf(Cell{Tuple: 1, Attr: zip}); len(m) == 0 {
		t.Errorf("noisy cell should have a marginal")
	}
	if m := res.MarginalOf(Cell{Tuple: 99, Attr: 0}); m != nil {
		t.Errorf("unknown cell should have nil marginal")
	}
}

// TestCleanWorkersEquivalent pins the sharded pipeline's determinism
// contract: for a fixed seed, every worker-pool size — including the
// sequential Workers=1 configuration — produces the same repairs and the
// same marginal probabilities.
func TestCleanWorkersEquivalent(t *testing.T) {
	run := func(workers int, variant Variant) *Result {
		ds, cs := smallDirty()
		opts := DefaultOptions()
		opts.Workers = workers
		opts.Variant = variant
		res, err := New(opts).Clean(ds, cs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, v := range []Variant{VariantDCFeats, VariantDCFactors, VariantDCFeatsFactors} {
		base := run(1, v)
		for _, w := range []int{2, 4, 16} {
			requireIdenticalResults(t, fmt.Sprintf("%s: Workers=%d", v.Name(), w), run(w, v), base)
		}
	}
}

// TestCleanWorkersEquivalentMultiShard repeats the determinism check on
// a dataset large enough to split into many shards (hundreds of noisy
// cells across independent conflict groups).
func TestCleanWorkersEquivalentMultiShard(t *testing.T) {
	build := func() (*Dataset, []*Constraint) {
		ds := NewDataset([]string{"Key", "Val", "Tag"})
		for g := 0; g < 120; g++ {
			k := fmt.Sprintf("k%03d", g)
			good := fmt.Sprintf("v%03d", g)
			for i := 0; i < 4; i++ {
				ds.Append([]string{k, good, "t"})
			}
			ds.Append([]string{k, fmt.Sprintf("bad%03d", g), "t"})
		}
		return ds, FD("fd", []string{"Key"}, []string{"Val"})
	}
	var base *Result
	for _, w := range []int{1, 7} {
		ds, cs := build()
		opts := DefaultOptions()
		opts.Workers = w
		res, err := New(opts).Clean(ds, cs)
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			base = res
			if res.Stats.Shards < 2 {
				t.Fatalf("shards = %d, want >= 2", res.Stats.Shards)
			}
			continue
		}
		if res.Stats.Shards != base.Stats.Shards {
			t.Errorf("shard plan depends on Workers: %d vs %d", res.Stats.Shards, base.Stats.Shards)
		}
		if !base.Repaired.Equal(res.Repaired) {
			t.Errorf("Workers=7 repairs differ from Workers=1")
		}
		if len(base.Repairs) != len(res.Repairs) {
			t.Fatalf("repair counts differ")
		}
		for i := range base.Repairs {
			if base.Repairs[i] != res.Repairs[i] {
				t.Errorf("repair %d differs: %+v vs %+v", i, base.Repairs[i], res.Repairs[i])
			}
		}
	}
}

// TestCleanShardStats checks that the sharded pipeline reports its shard
// structure.
func TestCleanShardStats(t *testing.T) {
	ds, cs := smallDirty()
	res, err := New(DefaultOptions()).Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shards < 1 {
		t.Errorf("Shards = %d, want >= 1", res.Stats.Shards)
	}
}
