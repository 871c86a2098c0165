package factor_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"holoclean/internal/factor"
	"holoclean/internal/factor/factortest"
)

// TestKernelMatchesReference is the oracle of the compiled scoring kernel:
// on random frozen graphs under random assignments, LocalScores — and the
// sampler's form of it, a copy of StaticScores plus AddNaryScores over a
// dense label array — equals the candidate-by-candidate reference to the
// bit, as does NaryH against the difference the reference makes of one
// factor. Slots resolved at Freeze, context predicates evaluated once per
// visit and the ±w shortcut must not move a single rounding.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs, scored := 0, 0
	for ; graphs < 1200; graphs++ {
		g := factortest.RandomGraph(rng, 1+rng.Intn(12), graphs%3 == 0)
		cur := make([]int32, len(g.Vars))
		for round := 0; round < 3; round++ {
			factortest.RandomAssign(rng, g)
			for u := range g.Vars {
				cur[u] = g.Vars[u].Domain[g.Vars[u].Assign]
			}
			for v := int32(0); int(v) < len(g.Vars); v++ {
				n := len(g.Vars[v].Domain)
				want, got, split := make([]float64, n), make([]float64, n), make([]float64, n)
				factortest.ReferenceLocalScores(g, v, want)
				g.LocalScores(v, got)
				static := make([]float64, n)
				g.StaticScores(v, static)
				copy(split, static)
				g.AddNaryScores(v, cur, split)
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						t.Fatalf("graph %d var %d: LocalScores[%d] = %v (%#x), reference %v (%#x)",
							graphs, v, d, got[d], math.Float64bits(got[d]), want[d], math.Float64bits(want[d]))
					}
					if math.Float64bits(split[d]) != math.Float64bits(want[d]) {
						t.Fatalf("graph %d var %d: static + n-ary over cur [%d] = %v, reference %v", graphs, v, d, split[d], want[d])
					}
				}
				scored++
			}
		}
	}
	if scored < 10000 {
		t.Fatalf("only %d variables scored over %d graphs", scored, graphs)
	}
}

// sharedShapeGraph draws a frozen graph whose n-ary factors come from a
// few predicate templates, as a folded denial constraint's factors do: many
// factors carry one list and differ only in their members, others differ
// only in a folded constant (two per constant side), and some put one
// variable in the two slots a predicate compares, or name one slot on both
// sides. Factors are added from one predicate buffer and one member buffer
// that are scribbled over after every AddNary, the way the grounder reuses
// its own. It returns the graph and, per factor, the members and predicates
// it was added with.
func sharedShapeGraph(rng *rand.Rand, nVars int) (*factor.Graph, [][]int32, [][]factor.Pred) {
	g := factor.NewGraph()
	g.Cmp = factortest.Cmp
	for i := 0; i < nVars; i++ {
		dom := rng.Perm(5)[:1+rng.Intn(4)]
		labels := make([]int32, len(dom))
		for d, l := range dom {
			labels[d] = int32(l)
		}
		g.AddVariable(labels, rng.Intn(5) == 0, int32(rng.Intn(len(labels))))
	}
	wids := []int32{g.Weights.Tie(factor.Tie{Family: 105}, 1.5, true), g.Weights.Tie(factor.Tie{Family: 106}, -0.75, true), g.Weights.Tie(factor.Tie{Family: 107}, rng.NormFloat64(), false)}
	type template struct {
		arity int
		preds []factor.Pred
	}
	templates := make([]template, 1+rng.Intn(3))
	for i := range templates {
		tp := &templates[i]
		tp.arity = 2 + rng.Intn(3)
		tp.preds = make([]factor.Pred, 1+rng.Intn(3))
		for j := range tp.preds {
			p := &tp.preds[j]
			p.LeftSlot = int32(rng.Intn(tp.arity))
			p.Op = uint8(rng.Intn(int(factor.OpSim) + 1))
			if rng.Intn(3) == 0 {
				p.RightSlot = -1
			} else {
				p.RightSlot = int32(rng.Intn(tp.arity)) // sometimes LeftSlot itself
			}
		}
	}
	var members [][]int32
	var lists [][]factor.Pred
	vars := make([]int32, 0, 4)
	buf := make([]factor.Pred, 0, 3)
	for k := 3 * nVars; k > 0; k-- {
		tp := templates[rng.Intn(len(templates))]
		vars = vars[:0]
		for _, v := range rng.Perm(nVars)[:min(tp.arity, nVars)] {
			vars = append(vars, int32(v))
		}
		for len(vars) < tp.arity {
			vars = append(vars, vars[rng.Intn(len(vars))])
		}
		buf = append(buf[:0], tp.preds...)
		for j := range buf {
			p := &buf[j]
			if p.RightSlot < 0 {
				p.RightConst = int32(rng.Intn(2)) // the folded constant
			} else if p.RightSlot != p.LeftSlot && rng.Intn(4) == 0 {
				vars[p.RightSlot] = vars[p.LeftSlot] // one variable on both sides
			}
		}
		g.AddNary(vars, buf, wids[rng.Intn(len(wids))])
		members = append(members, slices.Clone(vars))
		lists = append(lists, slices.Clone(buf))
		for j := range buf {
			buf[j] = factor.Pred{LeftSlot: 0, RightSlot: -1, RightConst: 4, Op: factor.OpNeq}
		}
		for j := range vars {
			vars[j] = 0
		}
	}
	g.Freeze()
	return g, members, lists
}

// TestSharedShapesMatchReference: factors that share an interned
// predicate list and compiled shapes score bit for bit like the
// candidate-by-candidate reference — whatever their members and folded
// constants, whichever slot the scored variable holds, and after the
// caller has overwritten the slices it passed to AddNary. Equal lists are
// stored once: their NaryPreds share one backing array.
func TestSharedShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	scored, shared, constOnly := 0, 0, 0
	for graphs := 0; graphs < 400; graphs++ {
		g, members, lists := sharedShapeGraph(rng, 2+rng.Intn(10))
		first := map[string]int{}
		for i := range g.Naries {
			f := &g.Naries[i]
			if !slices.Equal(g.NaryVars(f), members[i]) || !slices.Equal(g.NaryPreds(f), lists[i]) {
				t.Fatalf("graph %d factor %d: stored %v %v, added %v %v",
					graphs, i, g.NaryVars(f), g.NaryPreds(f), members[i], lists[i])
			}
			key := fmt.Sprint(lists[i])
			j, seen := first[key]
			if !seen {
				first[key] = i
				continue
			}
			shared++
			if &g.NaryPreds(f)[0] != &g.NaryPreds(&g.Naries[j])[0] {
				t.Fatalf("graph %d: factors %d and %d carry the same list %v in two copies", graphs, j, i, lists[i])
			}
		}
		for i := range lists {
			for j := i + 1; j < len(lists); j++ {
				if len(lists[i]) == len(lists[j]) && !slices.Equal(lists[i], lists[j]) &&
					slices.EqualFunc(lists[i], lists[j], func(a, b factor.Pred) bool { a.RightConst, b.RightConst = 0, 0; return a == b }) {
					constOnly++
				}
			}
		}
		cur := make([]int32, len(g.Vars))
		for round := 0; round < 3; round++ {
			factortest.RandomAssign(rng, g)
			for u := range g.Vars {
				cur[u] = g.Vars[u].Domain[g.Vars[u].Assign]
			}
			for v := int32(0); int(v) < len(g.Vars); v++ {
				n := len(g.Vars[v].Domain)
				want, got, split := make([]float64, n), make([]float64, n), make([]float64, n)
				factortest.ReferenceLocalScores(g, v, want)
				g.LocalScores(v, got)
				g.StaticScores(v, split)
				g.AddNaryScores(v, cur, split)
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) || math.Float64bits(split[d]) != math.Float64bits(want[d]) {
						t.Fatalf("graph %d var %d [%d]: LocalScores %v, static + n-ary over cur %v, reference %v",
							graphs, v, d, got[d], split[d], want[d])
					}
				}
				scored++
			}
		}
	}
	if scored < 5000 || shared < 3000 || constOnly < 1000 {
		t.Fatalf("weak coverage: %d variables scored, %d factors on an already seen list, %d list pairs differing only in a constant",
			scored, shared, constOnly)
	}
}

// TestNaryHMatchesReference: NaryH of v's k-th incident factor is what that
// factor alone contributes to the reference scores at weight 1.
func TestNaryHMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for i := 0; i < 300; i++ {
		g := factortest.RandomGraph(rng, 2+rng.Intn(8), false)
		factortest.RandomAssign(rng, g)
		// An n-ary-only twin with every weight 1, one factor at a time.
		for v := int32(0); int(v) < len(g.Vars); v++ {
			n := len(g.Vars[v].Domain)
			for k, ni := range g.IncidentNaries(v) {
				one := factor.NewGraph()
				one.Cmp = g.Cmp
				for u := range g.Vars {
					one.AddVariable(g.Vars[u].Domain, false, g.Vars[u].Assign)
				}
				f := &g.Naries[ni]
				one.AddNary(g.NaryVars(f), g.NaryPreds(f), one.Weights.Tie(factor.Tie{Family: 108}, 1, true))
				one.Freeze()
				want, got := make([]float64, n), make([]float64, n)
				factortest.ReferenceLocalScores(one, v, want)
				for d := range got {
					got[d] = math.NaN() // NaryH must overwrite, not accumulate
				}
				g.NaryH(v, k, nil, got)
				// A variable in two slots of the factor is incident to it
				// twice, and the twin's scores count it once per incidence.
				m := float64(len(one.IncidentNaries(v)))
				for d := range want {
					if m*got[d] != want[d] {
						t.Fatalf("graph %d var %d factor %d: h[%d] = %v, reference %v", i, v, ni, d, got[d], want[d])
					}
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d incidences checked", checked)
	}
}
