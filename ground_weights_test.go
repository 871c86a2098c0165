package holoclean

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/ddlog"
	"holoclean/internal/learn"
	"holoclean/internal/partition"
)

// TestGroundWithWeightsIsExact: a shard grounded with the broadcast
// weights (ddlog.Config.Weights) is the shard grounded at the priors and
// then tied to the broadcast, minus unary and soft factors of weight 0.
// Every variable's StaticScores must be bit-equal, and the n-ary factors
// and the colouring identical, on hospital and flights shards under DC
// Feats and DC Factors.
func TestGroundWithWeightsIsExact(t *testing.T) {
	gens := []*datagen.Generated{
		datagen.Hospital(datagen.Config{Tuples: 600, Seed: 1}),
		datagen.Flights(datagen.Config{Tuples: 600, Seed: 1}),
	}
	dropped := 0
	for _, g := range gens {
		for _, v := range []Variant{VariantDCFeats, VariantDCFactors} {
			opts := DefaultOptions()
			opts.Variant = v
			p := newPass(opts, g.Dirty, g.Constraints, nil)
			if err := p.compile(); err != nil {
				t.Fatal(err)
			}
			if err := p.learnWeights(); err != nil {
				t.Fatal(err)
			}
			for si, sh := range p.exec {
				name := fmt.Sprintf("%s/%s shard %d", g.Name, v.Name(), si)
				db := p.shardDB(sh)
				got, err := ddlog.Ground(db, p.prep.Program, p.shardConfig(nil))
				if err != nil {
					t.Fatal(err)
				}
				want, err := ddlog.Ground(db, p.prep.Program, ddlog.Config{MaxScanCounterparts: opts.MaxScanCounterparts})
				if err != nil {
					t.Fatal(err)
				}
				w := want.Graph.Weights
				for i := range w.Ties {
					if lw, ok := p.weights[w.Key(int32(i))]; ok && !w.Fixed[i] {
						w.W[i] = lw
					}
				}
				dropped += want.Graph.NumFactors() - got.Graph.NumFactors()
				requireSameInferenceGraph(t, name, got, want)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no factor was left out: the weight-aware grounding was not exercised")
	}
}

// TestLearningGraphMatchesMonolithic: the learning graph holds the
// evidence variables alone, and learning on it is learning on the
// monolithic graph. For every tying key the learning graph names, the
// weight SGD fits on it is bit-equal to the one learn.Learn fits on the
// whole relation's grounding — on hospital, on food with dictionaries
// (matches keyed on repairable cells take the weak key, a question the
// learning graph answers from the pass's domains), and on flights with
// trusted cells (confirmed evidence carrying source features).
func TestLearningGraphMatchesMonolithic(t *testing.T) {
	hospital := datagen.Hospital(datagen.Config{Tuples: 600, Seed: 1})
	food := datagen.Food(datagen.Config{Tuples: 600, Seed: 1})
	flights := datagen.Flights(datagen.Config{Tuples: 600, Seed: 1})
	dict := DefaultOptions()
	dict.Dictionaries, dict.MatchDependencies = food.Dictionaries, food.MatchDeps
	var trusted []dataset.Cell
	for i := 0; i < 8; i++ {
		trusted = append(trusted, dataset.Cell{Tuple: 71 * i, Attr: 1 + i%(flights.Dirty.NumAttrs()-1)})
	}
	for _, c := range []struct {
		name    string
		g       *datagen.Generated
		opts    Options
		trusted []dataset.Cell
		key     string // a key the case must exercise
	}{
		{"hospital", hospital, DefaultOptions(), nil, "ft|"},
		{"food/dictionary", food, dict, nil, "|weak"},
		{"flights/trusted", flights, DefaultOptions(), trusted, "fusion|"},
	} {
		o := c.opts
		p := newPass(o, c.g.Dirty, c.g.Constraints, c.trusted)
		if err := p.compile(); err != nil {
			t.Fatal(err)
		}
		lg, err := groundLearning(p.prep, o.MaxScanCounterparts)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := ddlog.Ground(p.prep.DB, p.prep.Program, ddlog.Config{MaxScanCounterparts: o.MaxScanCounterparts})
		if err != nil {
			t.Fatal(err)
		}
		if lg.Stats.QueryVars != 0 || lg.Stats.EvidenceVars != mono.Stats.EvidenceVars {
			t.Fatalf("%s: learning graph has %d query and %d evidence variables, want 0 and %d",
				c.name, lg.Stats.QueryVars, lg.Stats.EvidenceVars, mono.Stats.EvidenceVars)
		}
		if c.trusted != nil && !slices.ContainsFunc(c.trusted, func(tc dataset.Cell) bool { _, ok := lg.VarOf.Get(tc); return ok }) {
			t.Fatalf("%s: no trusted cell became evidence", c.name)
		}
		cfg := learn.Config{Epochs: o.LearningEpochs, LearningRate: o.LearningRate, L2: o.L2, Seed: o.Seed}
		learn.Learn(lg.Graph, cfg)
		learn.Learn(mono.Graph, cfg)
		exercised := false
		for i, tie := range lg.Graph.Weights.Ties {
			k := lg.Graph.Weights.Key(int32(i))
			j, ok := mono.Graph.Weights.Lookup(tie)
			if !ok {
				t.Fatalf("%s: key %q is not in the monolithic graph", c.name, k)
			}
			if got, want := lg.Graph.Weights.W[i], mono.Graph.Weights.W[j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: weight %q learned %v on the learning graph, %v on the monolithic one", c.name, k, got, want)
			}
			exercised = exercised || strings.Contains(k, c.key)
		}
		if !exercised {
			t.Fatalf("%s: the learning graph names no %q key", c.name, c.key)
		}
	}
}

// requireSameInferenceGraph asserts that got infers exactly what want
// does: the same variables, bit-equal static scores, the same n-ary
// factors at the same weights, and the same colouring.
func requireSameInferenceGraph(t *testing.T, name string, got, want *ddlog.Grounded) {
	t.Helper()
	gg, wg := got.Graph, want.Graph
	if !reflect.DeepEqual(got.Cells, want.Cells) || len(gg.Vars) != len(wg.Vars) {
		t.Fatalf("%s: variables differ", name)
	}
	gg.Freeze()
	wg.Freeze()
	for v := range wg.Vars {
		gv, wv := &gg.Vars[v], &wg.Vars[v]
		if !reflect.DeepEqual(gv.Domain, wv.Domain) || gv.Evidence != wv.Evidence || gv.Obs != wv.Obs {
			t.Fatalf("%s: variable %d differs", name, v)
		}
		gs, ws := make([]float64, len(wv.Domain)), make([]float64, len(wv.Domain))
		gg.StaticScores(int32(v), gs)
		wg.StaticScores(int32(v), ws)
		for d := range ws {
			if math.Float64bits(gs[d]) != math.Float64bits(ws[d]) {
				t.Fatalf("%s: static scores of variable %d are %v, want %v", name, v, gs, ws)
			}
		}
	}
	if len(gg.Naries) != len(wg.Naries) {
		t.Fatalf("%s: %d n-ary factors, want %d", name, len(gg.Naries), len(wg.Naries))
	}
	for i := range wg.Naries {
		gf, wf := &gg.Naries[i], &wg.Naries[i]
		if !reflect.DeepEqual(gg.NaryVars(gf), wg.NaryVars(wf)) || !reflect.DeepEqual(gg.NaryPreds(gf), wg.NaryPreds(wf)) ||
			gg.Weights.Key(gf.Weight) != wg.Weights.Key(wf.Weight) || gg.Weights.W[gf.Weight] != wg.Weights.W[wf.Weight] {
			t.Fatalf("%s: n-ary factor %d differs", name, i)
		}
	}
	if gg.HasNaryOnQuery() != wg.HasNaryOnQuery() || !reflect.DeepEqual(partition.ColorGraph(gg), partition.ColorGraph(wg)) {
		t.Fatalf("%s: colouring differs", name)
	}
}

// TestSessionRecleanRebuildsCounterpartTables: the relaxed-DC counterpart
// tables outlive a pass in the session's shared index. An in-place update
// of the joined value of a clean tuple moves it into another group's
// counterpart table, so Rebind must drop the constraint's tables: the
// Reclean must equal a full Clean of the mutated relation.
func TestSessionRecleanRebuildsCounterpartTables(t *testing.T) {
	ds, cs := sessionFixture(120)
	opts := DefaultOptions()
	s, err := NewSession(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	// Tuple 1 is a clean member of group k000; it joins group k001 with
	// its value v000.
	if _, err := s.Upsert(1, []string{"k001", "v000"}); err != nil {
		t.Fatal(err)
	}
	incr, err := s.Reclean()
	if err != nil {
		t.Fatal(err)
	}
	refOpts := opts
	refOpts.InitialWeights = s.Weights()
	ref, err := New(refOpts).Clean(s.Dataset(), cs)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "joined value moved", incr, ref)
	if incr.Stats.ShardsReused == 0 {
		t.Error("no shard reused: the reclean did not exercise the surviving index")
	}
}

// BenchmarkGroundHospital times the groundings of one Clean of the
// 2000-row hospital relation under DC Feats at the paper's τ: the learning
// graph, then every shard with the learned weights, over a fresh shared
// index per iteration, so the nine block histograms the relaxed rules of
// hospital's FD-shaped constraints count from are built, not inherited.
// Detection, pruning and learning run once, outside the timer.
func BenchmarkGroundHospital(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 2000, Seed: 1})
	opts := DefaultOptions()
	opts.Tau = 0.5
	opts.Variant = VariantDCFeats
	p := newPass(opts, g.Dirty, g.Constraints, nil)
	if err := p.compile(); err != nil {
		b.Fatal(err)
	}
	if err := p.learnWeights(); err != nil {
		b.Fatal(err)
	}
	dbs := make([]*ddlog.Database, len(p.exec))
	for i, sh := range p.exec {
		dbs[i] = p.shardDB(sh)
	}
	arena := ddlog.AcquireArena()
	defer ddlog.ReleaseArena(arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shared := ddlog.NewSharedIndex(p.ds, p.domains)
		p.prep.DB.Shared = shared
		if _, err := groundLearning(p.prep, opts.MaxScanCounterparts); err != nil {
			b.Fatal(err)
		}
		for _, db := range dbs {
			db.Shared = shared
			if _, err := ddlog.Ground(db, p.prep.Program, p.shardConfig(arena)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
