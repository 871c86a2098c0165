package compile

import (
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/ddlog"
	"holoclean/internal/factor"
)

// Grounding properties pinned on a real compiled workload. They live
// beside the compiler's tests, not ddlog's, because they need a prepared
// model and every test reaches Prepare through this package's one helper.

// hospitalPrep compiles the hospital workload up to (but excluding)
// grounding, wiring the given interner into the database.
func hospitalPrep(t *testing.T, interner *factor.KeyInterner) *Prepared {
	t.Helper()
	g := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 1})
	prep, _ := prepare(t, g.Dirty, g.Constraints, defaultOptions())
	prep.DB.Interner = interner
	return prep
}

// TestHospitalGroundingInternsKeys pins the tentpole property on a real
// workload: grounding the hospital DC program a second time against a
// shared interner registers zero new key strings — every tying key of the
// re-grounding is served from the canonical store, so the per-factor key
// path never allocates a string after interning.
func TestHospitalGroundingInternsKeys(t *testing.T) {
	interner := factor.NewKeyInterner()
	prep := hospitalPrep(t, interner)
	g1, err := ddlog.Ground(prep.DB, prep.Program, ddlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g1.Graph.NumFactors() == 0 {
		t.Fatal("hospital grounding produced no factors")
	}
	warm := interner.Len()
	if warm == 0 {
		t.Fatal("first grounding interned no keys; interner is not wired")
	}
	g2, err := ddlog.Ground(prep.DB, prep.Program, ddlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := interner.Len(); got != warm {
		t.Fatalf("re-grounding interned %d new keys, want 0 (per-factor key strings are not being reused)", got-warm)
	}
	if g1.Graph.Weights.Len() != g2.Graph.Weights.Len() {
		t.Fatalf("weight counts differ across groundings: %d vs %d", g1.Graph.Weights.Len(), g2.Graph.Weights.Len())
	}
	for i, k := range g1.Graph.Weights.Keys {
		if g2.Graph.Weights.Keys[i] != k {
			t.Fatalf("weight key %d differs: %q vs %q", i, k, g2.Graph.Weights.Keys[i])
		}
	}
}

// TestGroundArenaReuse pins that grounding through a pooled arena (the
// per-shard path) produces exactly the model a fresh grounding does, and
// that an arena can be handed from one grounding to the next.
func TestGroundArenaReuse(t *testing.T) {
	prep := hospitalPrep(t, factor.NewKeyInterner())
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
