package ddlog

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/errordetect"
	"holoclean/internal/pruning"
	"holoclean/internal/stats"
)

// relaxedProgram is the relaxation of every cell reference of every bound
// constraint, one rule each, as DC Feats compiles it.
func relaxedProgram(bounds []*dc.Bound) *Program {
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	for ci, b := range bounds {
		for _, ref := range b.Refs {
			prog.Add(&Rule{Kind: RelaxedDCFactors, Name: fmt.Sprintf("%s@t%d.a%d", b.Src.Name, ref.TupleVar+1, ref.Attr), Constraint: ci, Head: ref})
		}
	}
	return prog
}

// TestFDRulesBuildNoCounterpartTables pins the dispatch on dc.Bound.FDAttr:
// grounding the relaxed rules of hospital's constraints, all FD-shaped,
// counts from one block histogram per (key, FD attribute) and builds no
// counterpart table, while a shape that is not FD-shaped still does.
func TestFDRulesBuildNoCounterpartTables(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 400, Seed: 1})
	det, err := errordetect.Run(g.Dirty, &errordetect.Violations{Constraints: g.Constraints})
	if err != nil {
		t.Fatal(err)
	}
	domains := pruning.Compute(g.Dirty, stats.Collect(g.Dirty), det.Noisy, pruning.Config{Tau: 0.5})
	bounds, err := dc.BindAll(g.Constraints, g.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	db := &Database{DS: g.Dirty, Bounds: bounds, Domains: domains, RelaxedDCPrior: 1.5}
	db.Shared = NewSharedIndex(db.DS, db.Domains)
	got, err := Ground(db, relaxedProgram(bounds), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Graph.Softs) == 0 {
		t.Fatal("hospital's relaxed rules grounded no soft factor")
	}
	for r, rt := range db.Shared.relax {
		if len(rt.m) > 0 {
			t.Errorf("FD-shaped rule %s@%v built %d counterpart tables", r.src.Name, r.head, len(rt.m))
		}
	}
	if n := len(db.Shared.hists); n != len(bounds) {
		t.Errorf("%d block histograms for %d single-key FD constraints, want one each", n, len(bounds))
	}

	rng := rand.New(rand.NewSource(3))
	rdb := randomRelaxedDB(t, rng)
	c := dc.MustParse("t1&t2&EQ(t1.A,t2.B)&IQ(t1.C,t2.C)")
	c.Name = "cross"
	if rdb.Bounds, err = dc.BindAll([]*dc.Constraint{c}, rdb.DS); err != nil {
		t.Fatal(err)
	}
	rdb.Shared = NewSharedIndex(rdb.DS, rdb.Domains)
	if _, err := Ground(rdb, relaxedProgram(rdb.Bounds), Config{}); err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, rt := range rdb.Shared.relax {
		tables += len(rt.m)
	}
	if tables == 0 || len(rdb.Shared.hists) != 0 {
		t.Errorf("a constraint that is not FD-shaped built %d counterpart tables and %d histograms, want some and none", tables, len(rdb.Shared.hists))
	}
}

// TestHistogramsSurviveMutations: a SharedIndex kept across a random
// history of appends, swap-deletes and in-place writes, rebound after each
// step with the attributes the step wrote, grounds the relaxed rules of
// FD-shaped constraints with keys of one to three attributes as a fresh
// index over the mutated relation does — every soft factor's bits and
// PaperFactors — so the Rebind drop rule keeps no stale histogram.
func TestHistogramsSurviveMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	names := []string{"A", "B", "C", "D"}
	kept := 0
	for trial := 0; trial < 40; trial++ {
		ds := dataset.New(names)
		vocab := 2 + rng.Intn(3)
		value := func() string {
			if rng.Intn(5) == 0 { // one cell in five is null
				return ""
			}
			return string(rune('a' + rng.Intn(vocab)))
		}
		row := func() []string {
			r := make([]string, len(names))
			for a := range r {
				r[a] = value()
			}
			return r
		}
		for n := 2 + rng.Intn(25); n > 0; n-- {
			ds.Append(row())
		}
		var cs []*dc.Constraint
		for i := 0; i < 3; i++ {
			perm := rng.Perm(len(names))
			m := 1 + rng.Intn(3)
			src := "t1&t2"
			for _, a := range perm[:m] {
				src += fmt.Sprintf("&EQ(t1.%s,t2.%s)", names[a], names[a])
			}
			src += fmt.Sprintf("&IQ(t1.%s,t2.%s)", names[perm[m]], names[perm[m]])
			c := dc.MustParse(src)
			c.Name = fmt.Sprintf("c%d", i)
			cs = append(cs, c)
		}
		bounds, err := dc.BindAll(cs, ds)
		if err != nil {
			t.Fatal(err)
		}
		prog := relaxedProgram(bounds)
		domains := func() *pruning.Domains {
			var cells []dataset.Cell
			var cands [][]dataset.Value
			for tu := 0; tu < ds.NumTuples(); tu++ {
				for a := range names {
					if rng.Intn(3) > 0 {
						continue
					}
					var dom []dataset.Value
					for k := 0; k < vocab; k++ {
						if rng.Intn(2) == 0 {
							dom = append(dom, ds.Dict().Intern(string(rune('a'+k))))
						}
					}
					if len(dom) > 0 {
						cells, cands = append(cells, dataset.Cell{Tuple: tu, Attr: a}), append(cands, dom)
					}
				}
			}
			return pruning.NewDomains(cells, cands)
		}
		ground := func(shared *SharedIndex, doms *pruning.Domains) *Grounded {
			db := &Database{DS: ds, Bounds: bounds, Domains: doms, RelaxedDCPrior: 1.5, Shared: shared}
			g, err := Ground(db, prog, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		doms := domains()
		idx := NewSharedIndex(ds, doms)
		ground(idx, doms)
		for step := 0; step < 6; step++ {
			before := make([][]dataset.Value, ds.NumTuples())
			for tu := range before {
				before[tu] = slices.Clone(ds.Row(tu))
			}
			for ops := 1 + rng.Intn(3); ops > 0; ops-- {
				switch op := rng.Intn(4); {
				case op == 0 || ds.NumTuples() < 2:
					ds.Append(row())
				case op == 1:
					ds.DeleteSwap(rng.Intn(ds.NumTuples()))
				default:
					ds.SetString(rng.Intn(ds.NumTuples()), rng.Intn(len(names)), value())
				}
			}
			// The dirty attributes are those some slot's value moved on, as
			// a session's diff finds them: an append and a delete in one
			// step keep the tuple count but move the rows they touch.
			dirty := make(map[int]bool)
			for tu := range max(len(before), ds.NumTuples()) {
				for a := range names {
					if tu >= len(before) || tu >= ds.NumTuples() || before[tu][a] != ds.Get(tu, a) {
						dirty[a] = true
					}
				}
			}
			doms = domains()
			idx.Rebind(ds, doms, dirty)
			kept += len(idx.hists)
			got, want := ground(idx, doms), ground(NewSharedIndex(ds, doms), doms)
			name := fmt.Sprintf("trial %d, step %d", trial, step)
			compareSofts(t, name, got.Graph, want.Graph)
			if got.Stats.PaperFactors != want.Stats.PaperFactors {
				t.Errorf("%s: PaperFactors %d, fresh index %d", name, got.Stats.PaperFactors, want.Stats.PaperFactors)
			}
		}
	}
	if kept == 0 {
		t.Fatal("no histogram survived a rebind: the history never exercised retention")
	}
}
