package dc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"holoclean/internal/dataset"
)

// The oracles below are the shape derivations the grounder, the detector
// and the session each carried before Bind took them over, kept verbatim
// as references: Bind's answer must equal theirs on every constraint.

// refSymmetric is ddlog's isSymmetric/canonicalPreds: render every
// predicate in a normal form, with and without the tuple variables
// exchanged, and compare the sorted renderings.
func refSymmetric(b *Bound) bool {
	render := func(swapped bool) []string {
		tv := func(t int) int {
			if swapped && b.TupleVars == 2 {
				return 1 - t
			}
			return t
		}
		out := make([]string, 0, len(b.Preds))
		for _, p := range b.Preds {
			if p.RightIsConst {
				out = append(out, fmt.Sprintf("c|%d|%d|%d|%s", tv(p.LeftTuple), p.LeftAttr, p.Op, p.ConstStr))
				continue
			}
			lt, la := tv(p.LeftTuple), p.LeftAttr
			rt, ra := tv(p.RightTuple), p.RightAttr
			op := p.Op
			if lt > rt || (lt == rt && la > ra) {
				switch op {
				case Eq, Neq, Sim:
					lt, la, rt, ra = rt, ra, lt, la
				case Lt:
					lt, la, rt, ra, op = rt, ra, lt, la, Gt
				case Gt:
					lt, la, rt, ra, op = rt, ra, lt, la, Lt
				case Leq:
					lt, la, rt, ra, op = rt, ra, lt, la, Geq
				case Geq:
					lt, la, rt, ra, op = rt, ra, lt, la, Leq
				}
			}
			out = append(out, fmt.Sprintf("p|%d|%d|%d|%d|%d", lt, la, op, rt, ra))
		}
		sort.Strings(out)
		return out
	}
	return slices.Equal(render(false), render(true))
}

// refJoins is the former Bound.EqualityJoinAttrs.
func refJoins(b *Bound) [][2]int {
	var out [][2]int
	for _, p := range b.Preds {
		if p.Op == Eq && !p.RightIsConst && p.LeftTuple != p.RightTuple {
			l, r := p.LeftAttr, p.RightAttr
			if p.LeftTuple == 1 {
				l, r = r, l
			}
			out = append(out, [2]int{l, r})
		}
	}
	return out
}

// refRefs is the former ddlog.CellRefs.
func refRefs(b *Bound) []CellRef {
	var out []CellRef
	seen := make(map[CellRef]bool)
	add := func(r CellRef) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, p := range b.Preds {
		add(CellRef{TupleVar: p.LeftTuple, Attr: p.LeftAttr})
		if !p.RightIsConst {
			add(CellRef{TupleVar: p.RightTuple, Attr: p.RightAttr})
		}
	}
	return out
}

var shapeAttrs = []string{"A", "B", "C"}

// Values collide often (joins find partners), mix numbers with text
// (ordering operators take both paths) and include near-duplicates for ≈.
var shapeValues = []string{"", "1", "2", "10", "chicago", "chicagoo", "x"}

// randomConstraint draws a constraint over shapeAttrs: any of the seven
// operators, constants on the right, one or two tuple variables, and
// predicates whose two sides name the same variable — or the same cell.
func randomConstraint(rng *rand.Rand) *Constraint {
	c := &Constraint{TupleVars: 1 + rng.Intn(2)}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		p := Predicate{
			Left: AttrRef(rng.Intn(c.TupleVars), shapeAttrs[rng.Intn(len(shapeAttrs))]),
			Op:   Op(rng.Intn(len(opCodes))),
		}
		if rng.Intn(4) == 0 {
			p.Right = Const(shapeValues[1+rng.Intn(len(shapeValues)-1)])
		} else {
			p.Right = AttrRef(rng.Intn(c.TupleVars), shapeAttrs[rng.Intn(len(shapeAttrs))])
		}
		c.Predicates = append(c.Predicates, p)
	}
	// Half the pairwise draws are closed under the swap, so symmetric
	// constraints are as common as asymmetric ones.
	if c.TupleVars == 2 && rng.Intn(2) == 0 {
		for _, p := range slices.Clone(c.Predicates) {
			p.Left.Tuple = 1 - p.Left.Tuple
			if !p.Right.IsConst {
				p.Right.Tuple = 1 - p.Right.Tuple
			}
			c.Predicates = append(c.Predicates, p)
		}
	}
	return c
}

func randomRelation(rng *rand.Rand, tuples int) *dataset.Dataset {
	ds := dataset.New(shapeAttrs)
	for _, v := range shapeValues {
		ds.Dict().Intern(v) // as compile.Prepare does for constants, before any Bind
	}
	for t := 0; t < tuples; t++ {
		row := make([]string, len(shapeAttrs))
		for a := range row {
			row[a] = shapeValues[rng.Intn(len(shapeValues))]
		}
		ds.Append(row)
	}
	return ds
}

func TestBindShapeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	symmetric := 0
	for i := 0; i < 2000; i++ {
		c := randomConstraint(rng)
		ds := randomRelation(rng, 6)
		b, err := c.Bind(ds)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if want := refSymmetric(b); b.Symmetric != want {
			t.Fatalf("%s: Symmetric = %v, reference %v", c, b.Symmetric, want)
		}
		if want := refJoins(b); !slices.Equal(b.Joins, want) {
			t.Fatalf("%s: Joins = %v, reference %v", c, b.Joins, want)
		}
		refs := refRefs(b)
		if !slices.Equal(b.Refs, refs) {
			t.Fatalf("%s: Refs = %v, reference %v", c, b.Refs, refs)
		}
		for role := -1; role < 2; role++ {
			for a := range shapeAttrs {
				want := slices.ContainsFunc(refs, func(r CellRef) bool { return r.Attr == a && (role < 0 || r.TupleVar == role) })
				if got := b.References(role, a); got != want {
					t.Fatalf("%s: References(%d, %d) = %v, want %v", c, role, a, got, want)
				}
				if role >= 0 && want != slices.Contains(b.RoleAttrs[role], a) {
					t.Fatalf("%s: RoleAttrs[%d] = %v disagrees with Refs %v", c, role, b.RoleAttrs[role], refs)
				}
			}
		}
		if !b.Symmetric || c.TupleVars == 1 { // one variable: the swap is the identity
			continue
		}
		symmetric++
		for t1 := 0; t1 < ds.NumTuples(); t1++ {
			for t2 := 0; t2 < ds.NumTuples(); t2++ {
				if b.Violates(t1, t2) != b.Violates(t2, t1) {
					t.Fatalf("%s is Symmetric but Violates(%d,%d) != Violates(%d,%d)", c, t1, t2, t2, t1)
				}
			}
		}
	}
	if symmetric < 200 || symmetric > 1800 {
		t.Errorf("%d of 2000 random constraints pairwise and symmetric: the generator covers one side only", symmetric)
	}
}

// TestHoldsPredWithMatchesOverwrittenCopy pins the substituted evaluator to
// its definition: HoldsPredWith(i, t1, t2, ref, v) is HoldsPred(i, t1, t2)
// on a copy of the dataset whose referenced cell holds v.
func TestHoldsPredWithMatchesOverwrittenCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		c := randomConstraint(rng)
		ds := randomRelation(rng, 5)
		b, err := c.Bind(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range b.Refs {
			for t1 := 0; t1 < ds.NumTuples(); t1++ {
				for t2 := -1; t2 < ds.NumTuples(); t2++ {
					if (t2 < 0) != (c.TupleVars == 1) || t1 == t2 {
						continue // t2 is -1 exactly when there is no second role; one tuple never fills both
					}
					for _, s := range shapeValues {
						v := ds.Dict().Intern(s)
						hyp := ds.Clone()
						hyp.Set([2]int{t1, t2}[ref.TupleVar], ref.Attr, v)
						hb, err := c.Bind(hyp)
						if err != nil {
							t.Fatal(err)
						}
						for pi := range b.Preds {
							if got, want := b.HoldsPredWith(pi, t1, t2, &Subst{Ref: ref, Val: v}), hb.HoldsPred(pi, t1, t2); got != want {
								t.Fatalf("%s pred %d on (%d,%d) with t%d.%s = %q: HoldsPredWith = %v, overwritten copy says %v",
									c, pi, t1, t2, ref.TupleVar+1, shapeAttrs[ref.Attr], s, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// refFDAttr reads the FD shape off the unbound constraint: the ≠
// attribute when every predicate compares one attribute name across the
// two tuple variables, with = at least once and ≠ exactly once; -1
// otherwise.
func refFDAttr(c *Constraint, ds *dataset.Dataset) int {
	eqs, neq := 0, ""
	for _, p := range c.Predicates {
		if c.TupleVars != 2 || p.Right.IsConst || p.Left.Tuple == p.Right.Tuple || p.Left.Attr != p.Right.Attr {
			return -1
		}
		switch p.Op {
		case Eq:
			eqs++
		case Neq:
			if neq != "" {
				return -1
			}
			neq = p.Left.Attr
		default:
			return -1
		}
	}
	if eqs == 0 || neq == "" {
		return -1
	}
	return ds.AttrIndex(neq)
}

// randomFDLike draws pairwise constraints that are FD-shaped or one step
// away from it: predicates compare an attribute across the tuples in
// either orientation, mostly with = and ≠, sometimes with <, across two
// attributes, within one tuple, or against a constant.
func randomFDLike(rng *rand.Rand) *Constraint {
	c := &Constraint{TupleVars: 2}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		a := shapeAttrs[rng.Intn(len(shapeAttrs))]
		l := rng.Intn(2)
		p := Predicate{Left: AttrRef(l, a), Op: []Op{Eq, Eq, Neq, Neq, Lt}[rng.Intn(5)], Right: AttrRef(1-l, a)}
		switch rng.Intn(20) {
		case 0:
			p.Right.Attr = shapeAttrs[rng.Intn(len(shapeAttrs))]
		case 1:
			p.Right.Tuple = l
		case 2:
			p.Right = Const(shapeValues[1+rng.Intn(len(shapeValues)-1)])
		}
		c.Predicates = append(c.Predicates, p)
	}
	return c
}

// TestBindFDShape: FDAttr equals the reference reading of the predicates,
// and on an FD-shaped constraint Violates is exactly "join values equal,
// FDAttr values differ, all non-null" — the rule detection enumerates
// without evaluating pairs.
func TestBindFDShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shaped := 0
	for i := 0; i < 3000; i++ {
		c := randomFDLike(rng)
		if i%3 == 0 {
			c = randomConstraint(rng)
		}
		ds := randomRelation(rng, 6)
		b, err := c.Bind(ds)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if want := refFDAttr(c, ds); b.FDAttr != want {
			t.Fatalf("%s: FDAttr = %d, reference %d", c, b.FDAttr, want)
		}
		if b.FDAttr < 0 {
			continue
		}
		shaped++
		for t1 := 0; t1 < ds.NumTuples(); t1++ {
			for t2 := 0; t2 < ds.NumTuples(); t2++ {
				v1, v2 := ds.Get(t1, b.FDAttr), ds.Get(t2, b.FDAttr)
				want := t1 != t2 && v1 != dataset.Null && v2 != dataset.Null && v1 != v2
				for _, j := range b.Joins {
					want = want && ds.Get(t1, j[0]) != dataset.Null && ds.Get(t1, j[0]) == ds.Get(t2, j[1])
				}
				if got := b.Violates(t1, t2); got != want {
					t.Fatalf("%s is FD-shaped on %s but Violates(%d,%d) = %v", c, shapeAttrs[b.FDAttr], t1, t2, got)
				}
			}
		}
	}
	if shaped < 150 {
		t.Errorf("only %d of 3000 constraints FD-shaped: the generator misses the fast path", shaped)
	}
}
