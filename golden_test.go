package holoclean

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"holoclean/internal/datagen"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/clean_digests.json from this tree's outputs")

const digestFile = "testdata/clean_digests.json"

// TestCleanGoldenDigests compares this commit's outputs with the ones
// recorded in testdata/clean_digests.json — a SHA-256 of resultDigest
// (repairs with probabilities, full marginals, learned weights) per
// configuration. Every other byte-identity suite compares two paths inside
// one commit; this one compares a commit with the commit that recorded the
// file, so a change that claims "same outputs, less work" is checked
// against its parent. Regenerate with -update only when a PR renegotiates
// outputs on purpose, and say so in CHANGES.md.
func TestCleanGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen cleans, half of them sampled; CI runs it by name")
	}
	got := make(map[string]string)
	record := func(name string, digest *strings.Builder) {
		sum := sha256.Sum256([]byte(digest.String()))
		got[name] = hex.EncodeToString(sum[:])
	}
	clean := func(name string, g *datagen.Generated, opts Options) {
		t.Helper()
		res, err := New(opts).Clean(g.Dirty, g.Constraints)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var b strings.Builder
		resultDigest(&b, name, res)
		record(name, &b)
	}

	gens := []*datagen.Generated{
		datagen.Hospital(datagen.Config{Tuples: 600, Seed: 1}),
		datagen.Flights(datagen.Config{Tuples: 600, Seed: 1}),
		datagen.Food(datagen.Config{Tuples: 600, Seed: 1}),
		datagen.Physicians(datagen.Config{Tuples: 1000, Seed: 1}),
	}
	for _, g := range gens {
		for _, v := range []Variant{VariantDCFeats, VariantDCFactors, VariantDCFeatsFactors} {
			opts := DefaultOptions()
			opts.Variant = v
			opts.OutlierDetection = true
			clean(g.Name+"/"+v.Name(), g, opts)
		}
	}

	food := gens[2]
	opts := DefaultOptions()
	opts.Dictionaries, opts.MatchDependencies = food.Dictionaries, food.MatchDeps
	clean(food.Name+"/dictionary", food, opts)

	skew := datagen.Skew(datagen.SkewConfig{Tuples: 2000, Seed: 1, HotFrac: 0.6})
	for _, maxCells := range []int{0, 300} {
		opts := DefaultOptions()
		opts.Variant = VariantDCFactors
		opts.MaxComponentCells = maxCells
		name := skew.Name + "/whole"
		if maxCells > 0 {
			name = skew.Name + "/split300"
		}
		clean(name, skew, opts)
	}

	// One session script: Clean → Upsert typo batch → Reclean → Feedback →
	// Reclean, every step's result in one digest.
	{
		g := gens[0]
		s, err := NewSession(g.Dirty, g.Constraints, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		step := func(label string, res *Result, err error) *Result {
			t.Helper()
			if err != nil {
				t.Fatalf("session %s: %v", label, err)
			}
			resultDigest(&b, label, res)
			return res
		}
		res, err := s.Clean()
		first := step("clean", res, err)
		ds := s.Dataset()
		for t0 := 0; t0 < 6; t0++ {
			row := make([]string, ds.NumAttrs())
			for a := range row {
				row[a] = ds.GetString(t0*7, a)
			}
			a := 1 + t0%(len(row)-1)
			row[a] += "x"
			if _, err := s.Upsert(t0*7, row); err != nil {
				t.Fatal(err)
			}
		}
		res, err = s.Reclean()
		step("reclean after typos", res, err)
		if len(first.Repairs) == 0 {
			t.Fatal("fixture produced no repairs")
		}
		c := first.Repairs[len(first.Repairs)/2].Cell
		res, err = s.Feedback([]Feedback{{Cell: c, Value: g.Truth.GetString(c.Tuple, c.Attr)}})
		step("feedback", res, err)
		res, err = s.Reclean()
		step("reclean after feedback", res, err)
		record("session/"+g.Name, &b)
	}

	if *updateDigests {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestCleanGoldenDigests -update .)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d configurations ran, %s records %d", len(got), digestFile, len(want))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %s — outputs differ from the commit that recorded %s", name, d, want[name], digestFile)
		}
	}
}
