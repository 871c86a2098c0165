package holoclean

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/ddlog"
	"holoclean/internal/factor"
)

// TestTyingKeysRoundTrip pins the one boundary codec of tying keys
// (ddlog.Keys): every weight a whole-relation grounding ties, learnable or
// fixed, renders to a key that parses back to its tie, and every key of a
// Clean's LearnedWeights parses and renders back byte-equal. The cases
// cover every family: hospital under DC Feats (sibling indicators, both
// co-occurrence families, the frequency prior, relaxed constraints, the
// minimality prior), flights with confirmed cells, which give its
// conflict groups evidence (source indicators, fusion), food with
// dictionaries (full and weak matches) and DC Factors. The strings
// themselves are the parent's: TestCleanGoldenDigests hashes LearnedWeights.
func TestTyingKeysRoundTrip(t *testing.T) {
	hospital := datagen.Hospital(datagen.Config{Tuples: 600, Seed: 1})
	flights := datagen.Flights(datagen.Config{Tuples: 600, Seed: 1})
	food := datagen.Food(datagen.Config{Tuples: 600, Seed: 1})
	dict := DefaultOptions()
	dict.Dictionaries, dict.MatchDependencies = food.Dictionaries, food.MatchDeps
	factors := DefaultOptions()
	factors.Variant = VariantDCFactors
	var confirmed []Feedback
	for i := 0; i < 8; i++ {
		c := Cell{Tuple: 71 * i, Attr: 1 + i%(flights.Dirty.NumAttrs()-1)}
		confirmed = append(confirmed, Feedback{Cell: c, Value: flights.Dirty.GetString(c.Tuple, c.Attr)})
	}
	for _, c := range []struct {
		name     string
		g        *datagen.Generated
		opts     Options
		feedback []Feedback
		want     []string // key fragments the case must exercise
	}{
		{"hospital/DC Feats", hospital, DefaultOptions(), nil, []string{"|c", "cooc|", "ccln|", "freq|", "rdc|", "prior|minimality"}},
		{"flights/sources", flights, DefaultOptions(), confirmed, []string{"|s=", "fusion|"}},
		{"food/dictionary", food, dict, nil, []string{"dict|", "|weak"}},
		{"hospital/DC Factors", hospital, factors, nil, []string{"dc|"}},
	} {
		var trusted []Cell
		for _, f := range c.feedback {
			trusted = append(trusted, f.Cell)
		}
		p := newPass(c.opts, c.g.Dirty, c.g.Constraints, trusted)
		if err := p.compile(); err != nil {
			t.Fatal(err)
		}
		g, err := ddlog.Ground(p.prep.DB, p.prep.Program, ddlog.Config{MaxScanCounterparts: c.opts.MaxScanCounterparts})
		if err != nil {
			t.Fatal(err)
		}
		keys := ddlog.Keys{Names: p.interner}
		w := g.Graph.Weights
		var all strings.Builder
		for id, tie := range w.Ties {
			k := w.Key(int32(id))
			if back, ok := keys.Parse(k); !ok || back != tie {
				t.Fatalf("%s: key %q of tie %+v parses to %+v, %v", c.name, k, tie, back, ok)
			}
			all.WriteString(k + "\n")
		}
		for _, frag := range c.want {
			if !strings.Contains(all.String(), frag) {
				t.Errorf("%s: no tying key contains %q", c.name, frag)
			}
		}

		res, err := New(c.opts).CleanWithFeedback(c.g.Dirty, c.g.Constraints, c.feedback)
		if err != nil {
			t.Fatal(err)
		}
		var learned strings.Builder
		for k := range res.LearnedWeights {
			tie, ok := keys.Parse(k)
			if !ok || keys.String(tie) != k {
				t.Fatalf("%s: learned key %q does not round-trip (%+v, %v)", c.name, k, tie, ok)
			}
			learned.WriteString(k + "\n")
		}
		for _, frag := range c.want {
			fixed := frag == "prior|minimality" || frag == "dc|" // never learned, so never in LearnedWeights
			if !fixed && !strings.Contains(learned.String(), frag) {
				t.Errorf("%s: no learned key contains %q", c.name, frag)
			}
		}
	}
}

// TestInitialWeightsForeignKeys: keys of Options.InitialWeights that name
// no weight of the model — malformed, non-canonical, or naming a rule, a
// dictionary or a source the model lacks — tie no factor, so the Result is
// that of the model's own keys alone, while LearnedWeights echoes every
// key and RunStats.Weights counts each; a key the model names as a fixed
// prior changes no weight and, present in the map, leaves the count as it
// was. These are the parent's semantics, under which a key matched a
// factor only as the very string the factor was keyed by.
func TestInitialWeightsForeignKeys(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 300, Seed: 1})
	clean := func(weights map[string]float64) *Result {
		t.Helper()
		opts := DefaultOptions()
		opts.InitialWeights = weights
		res, err := New(opts).Clean(g.Dirty, g.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	outputs := func(res *Result) string {
		var b strings.Builder
		r := *res
		r.LearnedWeights = nil
		resultDigest(&b, "", &r)
		return b.String()
	}
	learned := clean(nil).LearnedWeights
	base := clean(learned)

	foreign := map[string]float64{
		"":                   1,
		"nonsense":           2,
		"ft|03|1|c2=3":       3, // leading zero
		"ft|1|2|c3":          4,
		"ft|1|2|s=no-source": 5,
		"cooc|1":             6,
		"freq|1|2":           7,
		"rdc|no-such-rule":   8,
		"dict|no-such-dict":  9,
		"dc|no-such-rule":    10,
		"prior|minimalityx":  11,
		"fusion|-0":          12,
	}
	for k := range learned {
		if strings.HasPrefix(k, "ft|") {
			foreign[k+"|x"] = 13 // a real key with a tail
			break
		}
	}
	withForeign := maps.Clone(learned)
	maps.Copy(withForeign, foreign)
	got := clean(withForeign)
	if outputs(got) != outputs(base) {
		t.Error("foreign keys changed the repairs or marginals")
	}
	if !maps.Equal(got.LearnedWeights, withForeign) {
		t.Error("LearnedWeights does not echo the injected map")
	}
	if want := base.Stats.Weights + len(foreign); got.Stats.Weights != want {
		t.Errorf("RunStats.Weights = %d, want %d (the model's plus one per foreign key)", got.Stats.Weights, want)
	}

	withPrior := maps.Clone(learned)
	withPrior["prior|minimality"] = 5
	got = clean(withPrior)
	if outputs(got) != outputs(base) {
		t.Error("injecting the fixed minimality prior changed the repairs or marginals")
	}
	if got.Stats.Weights != base.Stats.Weights {
		t.Errorf("RunStats.Weights = %d with the fixed prior injected, want %d", got.Stats.Weights, base.Stats.Weights)
	}
}

// TestRecleanRetriesUnresolvedKeys: a Reclean reuses its previous pass's
// resolved ties and parses again only the keys that named nothing then —
// a name the pass registered since (a dictionary's first match) makes one
// a tie, exactly as a full pass's resolution would.
func TestRecleanRetriesUnresolvedKeys(t *testing.T) {
	first := &pass{weights: map[string]float64{"dict|late": 2, "nonsense": 1}, interner: factor.NewKeyInterner()}
	first.resolveWeights()
	if len(first.unresolved) != 2 {
		t.Fatalf("unresolved %q, want both keys", first.unresolved)
	}
	late := factor.Tie{Family: ddlog.TieDict, A: first.interner.ID("late")}
	next := &pass{weights: first.weights, interner: first.interner, ties: first.ties, unresolved: first.unresolved}
	next.resolveWeights()
	if id, ok := next.ties.Lookup(late); !ok || next.ties.W[id] != 2 {
		t.Errorf("dict|late resolves to weight %d, %v; want one of 2", id, ok)
	}
	if !slices.Equal(next.unresolved, []string{"nonsense"}) {
		t.Errorf("unresolved %q, want [nonsense]", next.unresolved)
	}
}
