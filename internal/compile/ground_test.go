package compile

import (
	"slices"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/ddlog"
	"holoclean/internal/factor"
)

// Grounding properties pinned on a real compiled workload. They live
// beside the compiler's tests, not ddlog's, because they need a prepared
// model and every test reaches Prepare through this package's one helper.

// hospitalPrep compiles the hospital workload under variant up to (but
// excluding) grounding, wiring the given interner into the database.
func hospitalPrep(t *testing.T, interner *factor.KeyInterner, variant Variant) *Prepared {
	t.Helper()
	g := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 1})
	opts := defaultOptions()
	opts.Variant = variant
	prep, _ := prepare(t, g.Dirty, g.Constraints, opts)
	prep.DB.Interner = interner
	return prep
}

// TestHospitalGroundingInternsKeys pins the name table on a real workload:
// grounding the hospital DC program a second time against a shared
// interner registers zero new names — every name a tie of the re-grounding
// carries is served from the table — and the two groundings tie the same
// weights under the same key strings.
func TestHospitalGroundingInternsKeys(t *testing.T) {
	interner := factor.NewKeyInterner()
	prep := hospitalPrep(t, interner, DCFeats)
	g1, err := ddlog.Ground(prep.DB, prep.Program, ddlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Graph.NumFactors() == 0 {
		t.Fatal("hospital grounding produced no factors")
	}
	warm := interner.Len()
	if warm == 0 {
		t.Fatal("first grounding named nothing; interner is not wired")
	}
	g2, err := ddlog.Ground(prep.DB, prep.Program, ddlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := interner.Len(); got != warm {
		t.Fatalf("re-grounding registered %d new names, want 0", got-warm)
	}
	if g1.Graph.Weights.Len() != g2.Graph.Weights.Len() {
		t.Fatalf("weight counts differ across groundings: %d vs %d", g1.Graph.Weights.Len(), g2.Graph.Weights.Len())
	}
	for i := range g1.Graph.Weights.Ties {
		k := g1.Graph.Weights.Key(int32(i))
		if g2.Graph.Weights.Key(int32(i)) != k {
			t.Fatalf("weight key %d differs: %q vs %q", i, k, g2.Graph.Weights.Key(int32(i)))
		}
	}
}

// TestGroundArenaReuse pins that grounding through a pooled arena (the
// per-shard path) produces exactly the model a fresh grounding does, and
// that an arena can be handed from one grounding to the next unfrozen —
// under DC Factors too, whose n-ary factors intern predicate lists in the
// reused graph.
func TestGroundArenaReuse(t *testing.T) {
	for _, variant := range []Variant{DCFeats, DCFactorsOnly} {
		t.Run(variant.Name(), func(t *testing.T) { groundArenaReuse(t, variant) })
	}
}

func groundArenaReuse(t *testing.T, variant Variant) {
	prep := hospitalPrep(t, factor.NewKeyInterner(), variant)
	fresh, err := ddlog.Ground(prep.DB, prep.Program, ddlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ar := ddlog.AcquireArena()
	defer ddlog.ReleaseArena(ar)
	var pooled *ddlog.Grounded
	for round := 0; round < 2; round++ { // second round hits warm arrays
		pooled, err = ddlog.Ground(prep.DB, prep.Program, ddlog.Config{Arena: ar})
		if err != nil {
			t.Fatal(err)
		}
	}
	if fresh.Graph.NumFactors() != pooled.Graph.NumFactors() {
		t.Fatalf("factor counts differ: fresh %d, arena %d", fresh.Graph.NumFactors(), pooled.Graph.NumFactors())
	}
	// The arena's graph and weight store are reused, not rebuilt: the
	// second round must tie the same weights and score alike.
	fw, pw := fresh.Graph.Weights, pooled.Graph.Weights
	if !slices.Equal(fw.Ties, pw.Ties) || !slices.Equal(fw.W, pw.W) {
		t.Fatal("weight stores differ between a fresh and a reused arena")
	}
	if len(fresh.Graph.Naries) != len(pooled.Graph.Naries) {
		t.Fatalf("n-ary counts differ: fresh %d, arena %d", len(fresh.Graph.Naries), len(pooled.Graph.Naries))
	}
	for f := range fresh.Graph.Naries {
		fn, pn := &fresh.Graph.Naries[f], &pooled.Graph.Naries[f]
		if fn.Weight != pn.Weight || !slices.Equal(fresh.Graph.NaryVars(fn), pooled.Graph.NaryVars(pn)) || !slices.Equal(fresh.Graph.NaryPreds(fn), pooled.Graph.NaryPreds(pn)) {
			t.Fatalf("n-ary factor %d differs between a fresh and a reused arena", f)
		}
	}
	fresh.Graph.Freeze()
	pooled.Graph.Freeze()
	for v := range fresh.Graph.Vars {
		fs := make([]float64, len(fresh.Graph.Vars[v].Domain))
		ps := make([]float64, len(fs))
		fresh.Graph.StaticScores(int32(v), fs)
		pooled.Graph.StaticScores(int32(v), ps)
		if !slices.Equal(fs, ps) {
			t.Fatalf("variable %d scores %v from a reused arena, %v fresh", v, ps, fs)
		}
	}
	if len(fresh.Cells) != len(pooled.Cells) {
		t.Fatalf("cell counts differ: fresh %d, arena %d", len(fresh.Cells), len(pooled.Cells))
	}
	for vi, c := range fresh.Cells {
		if pooled.Cells[vi] != c {
			t.Fatalf("cell %d differs: %v vs %v", vi, c, pooled.Cells[vi])
		}
		pv, ok := pooled.VarOf.Get(c)
		if !ok || pv != int32(vi) {
			t.Fatalf("arena VarOf(%v) = %d,%v, want %d", c, pv, ok, vi)
		}
	}
	// Cells outside the variable set must stay unmapped after reuse.
	if _, ok := pooled.VarOf.Get(dataset.Cell{Tuple: 0, Attr: 0}); ok != func() bool {
		_, fok := fresh.VarOf.Get(dataset.Cell{Tuple: 0, Attr: 0})
		return fok
	}() {
		t.Fatal("arena VarOf disagrees with fresh VarOf on an unmapped cell")
	}
}
