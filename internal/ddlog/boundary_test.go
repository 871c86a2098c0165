package ddlog

import (
	"testing"

	"holoclean/internal/dataset"
)

// boundaryScope narrows the fixture to a sub-shard owning only tuple 0,
// with tuples 1 and 2 owning query variables on Zip in other sub-shards.
func boundaryScope(damp float64) *Scope {
	return &Scope{
		InShard: map[int]bool{0: true},
		QueryAttrs: map[int]map[int]bool{
			0: {1: true}, 1: {1: true}, 2: {1: true},
		},
		Boundary: damp,
	}
}

func groundWithScope(t *testing.T, sc *Scope) *Grounded {
	t.Helper()
	fx := newFixture(t)
	// Narrow the domains to tuple 0's noisy cell, as the shard runner does.
	cells := []dataset.Cell{{Tuple: 0, Attr: 1}}
	cands := [][]dataset.Value{fx.db.Domains.Of(cells[0])}
	fx.db.Domains.Cells = cells
	fx.db.Domains.Candidates = cands
	fx.db.Scope = sc
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: DCFactors, Name: "fd", Constraint: 0, FixedWeight: 3})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBoundaryDampingOff pins the legacy Algorithm 3 cut: pairs reaching
// another sub-shard's query variables are skipped entirely.
func TestBoundaryDampingOff(t *testing.T) {
	g := groundWithScope(t, boundaryScope(0))
	if len(g.Graph.Naries) != 0 {
		t.Fatalf("scope cut without damping grounded %d factors, want 0", len(g.Graph.Naries))
	}
}

// TestBoundaryDampingGrounds: with damping, cross-boundary pairs ground
// with the out-of-shard side folded to its observed value and the weight
// scaled by the damping coefficient under a distinct tying key.
func TestBoundaryDampingGrounds(t *testing.T) {
	g := groundWithScope(t, boundaryScope(0.5))
	if len(g.Graph.Naries) == 0 {
		t.Fatal("damped boundary pairs were not grounded")
	}
	for i := range g.Graph.Naries {
		f := &g.Graph.Naries[i]
		// Only tuple 0 owns a variable in this sub-shard; the counterpart
		// side must have folded to a constant.
		if vars := g.Graph.NaryVars(f); len(vars) != 1 || g.Cells[vars[0]].Tuple != 0 {
			t.Fatalf("boundary factor should touch only the in-shard variable, got vars %v", vars)
		}
		key := g.Graph.Weights.Keys[f.Weight]
		if key != "dc~|fd" {
			t.Fatalf("boundary factor weight key = %q, want dc~|fd", key)
		}
		if w := g.Graph.Weights.W[f.Weight]; w != 1.5 {
			t.Fatalf("boundary weight = %v, want 3 * 0.5 = 1.5", w)
		}
		if !g.Graph.Weights.Fixed[f.Weight] {
			t.Fatal("boundary weight must stay fixed (not learnable)")
		}
		// The folded side must pin the counterpart's observed value: every
		// predicate's right side is a constant.
		for _, p := range g.Graph.NaryPreds(f) {
			if p.RightSlot >= 0 {
				t.Fatalf("boundary factor kept a variable counterpart: %+v", p)
			}
		}
	}
}

// TestBoundaryDampingKeepsInShardPairs: a scope that owns both conflicting
// tuples grounds their pair at full weight even when damping is enabled.
func TestBoundaryDampingKeepsInShardPairs(t *testing.T) {
	fx := newFixture(t)
	fx.db.Scope = &Scope{
		InShard: map[int]bool{0: true, 1: true, 2: true},
		QueryAttrs: map[int]map[int]bool{
			0: {1: true}, 1: {1: true}, 2: {1: true},
		},
		Boundary: 0.5,
	}
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	prog.Add(&Rule{Kind: DCFactors, Name: "fd", Constraint: 0, FixedWeight: 3})
	g, err := Ground(fx.db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Graph.Naries) == 0 {
		t.Fatal("expected in-shard DC factors")
	}
	for i := range g.Graph.Naries {
		f := &g.Graph.Naries[i]
		if key := g.Graph.Weights.Keys[f.Weight]; key != "dc|fd" {
			t.Fatalf("in-shard factor got key %q, want dc|fd (full weight)", key)
		}
	}
}
