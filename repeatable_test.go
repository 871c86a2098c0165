package holoclean

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"holoclean/internal/datagen"
)

// resultDigest renders everything a pass computed from floats — repairs,
// full marginals, learned weights — in a fixed order. %v prints the
// shortest decimal that round-trips a float64, so equal digests mean
// bit-identical numbers.
func resultDigest(b *strings.Builder, label string, res *Result) {
	fmt.Fprintf(b, "== %s\n", label)
	for _, r := range res.Repairs {
		fmt.Fprintf(b, "repair %+v\n", r)
	}
	cells := make([]Cell, 0, len(res.Marginals))
	for c := range res.Marginals {
		cells = append(cells, c)
	}
	slices.SortFunc(cells, func(a, b Cell) int {
		if a.Tuple != b.Tuple {
			return a.Tuple - b.Tuple
		}
		return a.Attr - b.Attr
	})
	for _, c := range cells {
		fmt.Fprintf(b, "marginal %v %v\n", c, res.Marginals[c])
	}
	keys := make([]string, 0, len(res.LearnedWeights))
	for k := range res.LearnedWeights {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "weight %s %v\n", k, res.LearnedWeights[k])
	}
}

// TestCleanRepeatable pins that the pipeline is a pure function of its
// input and seed: on every generator (dictionaries and outlier detection
// on, Skew under correlation factors) a batch Clean and a session's
// Clean → Feedback → Upsert+Reclean with relearning, repeated in one
// process, yield byte-identical repairs, marginals and learned weights.
// Closed-form marginals carry every ulp of the feature scores into the
// output, so an accumulation in map order anywhere upstream (source
// fusion once had two) shows up here.
func TestCleanRepeatable(t *testing.T) {
	for _, w := range []struct {
		name    string
		variant Variant
		gen     func() *datagen.Generated
	}{
		{"hospital", VariantDCFeats, func() *datagen.Generated { return datagen.Hospital(datagen.Config{Tuples: 120, Seed: 3}) }},
		{"flights", VariantDCFeats, func() *datagen.Generated { return datagen.Flights(datagen.Config{Tuples: 300, Seed: 3}) }},
		{"food", VariantDCFeats, func() *datagen.Generated { return datagen.Food(datagen.Config{Tuples: 120, Seed: 3}) }},
		{"physicians", VariantDCFeats, func() *datagen.Generated { return datagen.Physicians(datagen.Config{Tuples: 150, Seed: 3}) }},
		{"skew", VariantDCFactors, func() *datagen.Generated { return datagen.Skew(datagen.SkewConfig{Tuples: 300, Seed: 3, HotFrac: 0.5}) }},
	} {
		t.Run(w.name, func(t *testing.T) {
			run := func() string {
				var b strings.Builder
				step := func(label string, res *Result, err error) *Result {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					resultDigest(&b, label, res)
					return res
				}
				g := w.gen()
				opts := DefaultOptions()
				opts.Variant = w.variant
				opts.Dictionaries, opts.MatchDependencies = g.Dictionaries, g.MatchDeps
				opts.OutlierDetection = true
				opts.RelearnEvery = 1
				res, err := New(opts).Clean(g.Dirty.Clone(), g.Constraints)
				step("batch clean", res, err)

				s, err := NewSession(g.Dirty, g.Constraints, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err = s.Clean()
				first := step("session clean", res, err)
				if len(first.Repairs) == 0 {
					t.Fatal("fixture produced no repairs")
				}
				c := first.Repairs[0].Cell
				res, err = s.Feedback([]Feedback{{Cell: c, Value: g.Truth.GetString(c.Tuple, c.Attr)}})
				step("feedback", res, err)
				row := make([]string, g.Dirty.NumAttrs())
				for a := range row {
					row[a] = s.Dataset().GetString(0, a)
				}
				last := len(row) - 1
				row[last] = s.Dataset().GetString(s.NumTuples()-1, last)
				if _, err := s.Upsert(0, row); err != nil {
					t.Fatal(err)
				}
				res, err = s.Reclean()
				step("reclean", res, err)
				return b.String()
			}
			want := strings.Split(run(), "\n")
			for rep := 1; rep < 3; rep++ {
				got := strings.Split(run(), "\n")
				for i := range min(len(want), len(got)) {
					if got[i] != want[i] {
						t.Fatalf("run %d differs from run 0 at line %d:\nrun 0: %s\nrun %d: %s", rep, i, want[i], rep, got[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("run %d emitted %d lines, run 0 %d", rep, len(got), len(want))
				}
			}
		})
	}
}
