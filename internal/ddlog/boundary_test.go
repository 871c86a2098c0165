package ddlog

import (
	"slices"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/extdict"
	"holoclean/internal/pruning"
)

// groundSubShard grounds the fixture's FD factors in a sub-shard that owns
// tuple 0's noisy cell alone: its own Domains hold that cell, while the
// shared index carries the pass's domains, in which tuples 1 and 2 own
// query variables on Zip too.
func groundSubShard(t *testing.T, damp float64) *Grounded {
	t.Helper()
	fx := newFixture(t)
	fx.db.Shared = NewSharedIndex(fx.ds, fx.db.Domains)
	c := dataset.Cell{Tuple: 0, Attr: 1}
	fx.db.Domains = pruning.NewDomains([]dataset.Cell{c}, [][]dataset.Value{fx.db.Domains.Of(c)})
	fx.db.Boundary = damp
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
	g := groundSubShard(t, 0)
	if len(g.Graph.Naries) != 0 {
		t.Fatalf("scope cut without damping grounded %d factors, want 0", len(g.Graph.Naries))
	}
}

// TestBoundaryDampingGrounds: with damping, cross-boundary pairs ground
// with the out-of-shard side folded to its observed value and the weight
// scaled by the damping coefficient under a distinct tying key.
func TestBoundaryDampingGrounds(t *testing.T) {
	g := groundSubShard(t, 0.5)
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
		key := g.Graph.Weights.Key(f.Weight)
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

// TestBoundaryDampingKeepsInShardPairs: a shard that owns both conflicting
// tuples grounds their pair at full weight even when damping is enabled.
func TestBoundaryDampingKeepsInShardPairs(t *testing.T) {
	fx := newFixture(t)
	fx.db.Shared = NewSharedIndex(fx.ds, fx.db.Domains)
	fx.db.Boundary = 0.5
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
		if key := g.Graph.Weights.Key(f.Weight); key != "dc|fd" {
			t.Fatalf("in-shard factor got key %q, want dc|fd (full weight)", key)
		}
	}
}

// TestPredicatesReadThePassDomains grounds a graph whose own Domains hold
// tuple 0's Zip cell but not its Name cell, the cell the FD joins on and a
// dictionary match is keyed on. Whether that Name cell is a repairable
// query variable is a question about the model, not about this graph: the
// relaxed-DC testimony takes the 0.5 trust scale, the match the weak key,
// and a DC pair referencing the cell is cut (or damped) exactly when the
// pass's domains, carried by the shared index, give it two candidates.
func TestPredicatesReadThePassDomains(t *testing.T) {
	fx := newFixture(t)
	ds := fx.ds
	const name, zip = 0, 1
	vals := func(ss ...string) []dataset.Value {
		out := make([]dataset.Value, len(ss))
		for i, s := range ss {
			v, ok := ds.Dict().Lookup(s)
			if !ok {
				t.Fatalf("value %q not in the dataset", s)
			}
			out[i] = v
		}
		slices.Sort(out)
		return out
	}
	head := dataset.Cell{Tuple: 0, Attr: zip}
	join := dataset.Cell{Tuple: 0, Attr: name}
	// pass says whether the pass's domains make the join cell repairable.
	ground := func(pass bool, damp float64) *Grounded {
		t.Helper()
		local := pruning.NewDomains([]dataset.Cell{head}, [][]dataset.Value{vals("60608", "60609")})
		global := local
		if pass {
			global = pruning.NewDomains([]dataset.Cell{join, head}, [][]dataset.Value{vals("a", "b"), vals("60608", "60609")})
		}
		db := &Database{
			DS:             ds,
			Bounds:         fx.bounds,
			Domains:        local,
			Shared:         NewSharedIndex(ds, global),
			Boundary:       damp,
			Matches:        []extdict.Match{{Cell: head, Value: "60609", Dict: "zips", CondCells: []dataset.Cell{join}}},
			DictPrior:      2,
			RelaxedDCPrior: 1,
		}
		prog := &Program{}
		prog.Add(&Rule{Kind: RandomVariables})
		prog.Add(&Rule{Kind: MatchedFactors})
		prog.Add(&Rule{Kind: DCFactors, Name: "fd", Constraint: 0, FixedWeight: 3})
		prog.Add(&Rule{Kind: RelaxedDCFactors, Name: "fd@zip", Constraint: 0, Head: CellRef{TupleVar: 0, Attr: zip}})
		g, err := Ground(db, prog, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Cells) != 1 || g.Cells[0] != head {
			t.Fatalf("variables %v, want the head cell alone", g.Cells)
		}
		return g
	}
	relaxedH := func(g *Grounded) []float64 {
		for i := range g.Graph.Softs {
			if s := &g.Graph.Softs[i]; g.Graph.Weights.Key(s.Weight) == "rdc|fd@zip" {
				return g.Graph.SoftH(s)
			}
		}
		t.Fatal("no relaxed-DC feature on the head cell")
		return nil
	}
	matchKey := func(g *Grounded) string {
		if len(g.Graph.Unaries) != 1 {
			t.Fatalf("%d match factors, want 1", len(g.Graph.Unaries))
		}
		return g.Graph.Weights.Key(g.Graph.Unaries[0].Weight)
	}
	naryKeys := func(g *Grounded) []string {
		var keys []string
		for i := range g.Graph.Naries {
			keys = append(keys, g.Graph.Weights.Key(g.Graph.Naries[i].Weight))
		}
		return keys
	}

	clean, cut, damped := ground(false, 0), ground(true, 0), ground(true, 0.5)

	full, half := relaxedH(clean), relaxedH(cut)
	if !slices.ContainsFunc(full, func(h float64) bool { return h != 0 }) {
		t.Fatalf("relaxed-DC h = %v: no violation to scale", full)
	}
	for d := range full {
		if half[d] != 0.5*full[d] {
			t.Errorf("relaxed-DC h = %v with a repairable join cell, want half of %v", half, full)
			break
		}
	}

	if k := matchKey(clean); k != "dict|zips" {
		t.Errorf("match keyed on a clean cell has key %q, want dict|zips", k)
	}
	if k := matchKey(cut); k != "dict|zips|weak" {
		t.Errorf("match keyed on a repairable cell has key %q, want dict|zips|weak", k)
	}

	if keys := naryKeys(clean); len(keys) == 0 || slices.ContainsFunc(keys, func(k string) bool { return k != "dc|fd" }) {
		t.Errorf("with a clean join cell the DC pairs ground at full weight, got keys %v", keys)
	}
	if keys := naryKeys(cut); len(keys) != 0 {
		t.Errorf("pairs referencing another graph's query variable were grounded: keys %v", keys)
	}
	if keys := naryKeys(damped); len(keys) == 0 || slices.ContainsFunc(keys, func(k string) bool { return k != "dc~|fd" }) {
		t.Errorf("with damping the cut pairs ground under dc~|fd alone, got keys %v", keys)
	}
}
