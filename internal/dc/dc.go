// Package dc implements the denial-constraint language of HoloClean
// (Section 3.1). A denial constraint has the form
//
//	σ: ∀t1,t2 ∈ D : ¬(P1 ∧ … ∧ PK)
//
// where each predicate Pk is (t1[An] o t2[Am]) or (t1[An] o α) for an
// attribute pair, a constant α, and o ∈ {=, ≠, <, >, ≤, ≥, ≈}. Denial
// constraints subsume functional dependencies, conditional functional
// dependencies, and metric functional dependencies.
//
// The textual format follows the convention of the original HoloClean
// release: tuple-variable declarations followed by predicates, joined
// with '&', e.g.
//
//	t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)
//
// Operator codes: EQ(=) IQ(≠) LT(<) GT(>) LTE(≤) GTE(≥) SIM(≈).
package dc

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"holoclean/internal/dataset"
	"holoclean/internal/text"
)

// Op is a comparison operator from the set B of Section 3.1.
type Op int

// The operator set B = {=, ≠, <, >, ≤, ≥, ≈}.
const (
	Eq Op = iota
	Neq
	Lt
	Gt
	Leq
	Geq
	Sim // ≈, similarity
)

var opCodes = [...]string{Eq: "EQ", Neq: "IQ", Lt: "LT", Gt: "GT", Leq: "LTE", Geq: "GTE", Sim: "SIM"}
var opSymbols = [...]string{Eq: "=", Neq: "!=", Lt: "<", Gt: ">", Leq: "<=", Geq: ">=", Sim: "~="}

// Code returns the textual operator code (EQ, IQ, ...).
func (o Op) Code() string { return opCodes[o] }

// String returns the mathematical symbol for the operator.
func (o Op) String() string { return opSymbols[o] }

// Flip returns the operator that holds of (b, a) exactly when o holds of
// (a, b).
func (o Op) Flip() Op { return opFlips[o] }

var opFlips = [...]Op{Eq: Eq, Neq: Neq, Lt: Gt, Gt: Lt, Leq: Geq, Geq: Leq, Sim: Sim}

// Operand is one side of a predicate: either a tuple-attribute reference
// (Tuple ∈ {0,1} for t1/t2) or a constant.
type Operand struct {
	IsConst bool
	Tuple   int    // 0 = t1, 1 = t2; meaningful when !IsConst
	Attr    string // attribute name; meaningful when !IsConst
	Const   string // constant literal; meaningful when IsConst
}

func (o Operand) String() string {
	if o.IsConst {
		return strconv.Quote(o.Const)
	}
	return fmt.Sprintf("t%d.%s", o.Tuple+1, o.Attr)
}

// AttrRef returns a tuple-attribute operand.
func AttrRef(tuple int, attr string) Operand { return Operand{Tuple: tuple, Attr: attr} }

// Const returns a constant operand.
func Const(v string) Operand { return Operand{IsConst: true, Const: v} }

// Predicate is a single comparison Pk. The left operand is always a
// tuple-attribute reference (as in Section 3.1's grammar).
type Predicate struct {
	Left  Operand
	Op    Op
	Right Operand
}

func (p Predicate) String() string {
	return fmt.Sprintf("%s(%s,%s)", p.Op.Code(), p.Left, p.Right)
}

// Constraint is a denial constraint. TupleVars is 1 for single-tuple
// constraints (∀t1: ¬(...)) and 2 for pairwise constraints.
type Constraint struct {
	Name       string // optional identifier, e.g. "c1"
	TupleVars  int
	Predicates []Predicate
}

// String renders the constraint in the parseable textual format.
func (c *Constraint) String() string {
	parts := make([]string, 0, c.TupleVars+len(c.Predicates))
	for i := 0; i < c.TupleVars; i++ {
		parts = append(parts, fmt.Sprintf("t%d", i+1))
	}
	for _, p := range c.Predicates {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, "&")
}

// Attributes returns the distinct attribute names mentioned by the
// constraint, in first-mention order.
func (c *Constraint) Attributes() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(o Operand) {
		if !o.IsConst && !seen[o.Attr] {
			seen[o.Attr] = true
			out = append(out, o.Attr)
		}
	}
	for _, p := range c.Predicates {
		add(p.Left)
		add(p.Right)
	}
	return out
}

// FD builds the denial constraints encoding the functional dependency
// lhs… → rhs… (one constraint per right-hand attribute, as in Example 2).
// Names are derived from the base name: base, base.2, ….
func FD(base string, lhs []string, rhs []string) []*Constraint {
	out := make([]*Constraint, 0, len(rhs))
	for i, r := range rhs {
		preds := make([]Predicate, 0, len(lhs)+1)
		for _, l := range lhs {
			preds = append(preds, Predicate{Left: AttrRef(0, l), Op: Eq, Right: AttrRef(1, l)})
		}
		preds = append(preds, Predicate{Left: AttrRef(0, r), Op: Neq, Right: AttrRef(1, r)})
		name := base
		if i > 0 {
			name = fmt.Sprintf("%s.%d", base, i+1)
		}
		out = append(out, &Constraint{Name: name, TupleVars: 2, Predicates: preds})
	}
	return out
}

// Validate checks structural sanity: predicates reference declared tuple
// variables by a non-empty attribute name, left operands are attribute
// references, and at least one predicate exists.
func (c *Constraint) Validate() error {
	if c.TupleVars < 1 || c.TupleVars > 2 {
		return fmt.Errorf("dc: constraint %q declares %d tuple variables, want 1 or 2", c.Name, c.TupleVars)
	}
	if len(c.Predicates) == 0 {
		return fmt.Errorf("dc: constraint %q has no predicates", c.Name)
	}
	for i, p := range c.Predicates {
		if p.Left.IsConst {
			return fmt.Errorf("dc: constraint %q predicate %d: left operand must be an attribute reference", c.Name, i)
		}
		for _, o := range []Operand{p.Left, p.Right} {
			if o.IsConst {
				continue
			}
			if o.Tuple >= c.TupleVars {
				return fmt.Errorf("dc: constraint %q predicate %d references t%d but only %d tuple vars are declared", c.Name, i, o.Tuple+1, c.TupleVars)
			}
			if o.Attr == "" {
				return fmt.Errorf("dc: constraint %q predicate %d references t%d with an empty attribute name", c.Name, i, o.Tuple+1)
			}
		}
		if int(p.Op) >= len(opCodes) || p.Op < 0 {
			return fmt.Errorf("dc: constraint %q predicate %d: unknown operator", c.Name, i)
		}
	}
	return nil
}

// CellRef identifies one (tuple variable, attribute) reference inside a
// denial constraint, e.g. t1.Zip.
type CellRef struct {
	TupleVar int // 0 = t1, 1 = t2
	Attr     int // attribute index
}

// Bound is a constraint resolved against a dataset schema: attribute names
// become indices and constants become interned values, making evaluation
// allocation-free. Bind also analyses the constraint's shape once — what
// it joins on, which cells each tuple role reads, whether the roles are
// interchangeable — so detection, grounding and invalidation read the same
// answer instead of each re-deriving it from Preds. Nothing is filled in
// lazily: a Bound is immutable after Bind and shared freely across
// goroutines.
type Bound struct {
	Src       *Constraint
	TupleVars int
	Preds     []BoundPred
	// Joins lists, in predicate order, the attribute pairs (t1's, t2's) of
	// the predicates t1[A] = t2[B] across the two tuple variables: the
	// hash-join keys that spare violation detection and grounding the
	// O(|D|²) pair scan (Section 5.1.2's motivation). Empty means the
	// constraint can only be evaluated by scanning pairs.
	Joins [][2]int
	// Refs lists the distinct cell references of the predicates in
	// first-mention order — the head candidates of the Section 5.2
	// relaxation, and the cells of a violation once instantiated.
	Refs []CellRef
	// RoleAttrs[r] lists the distinct attributes tuple role r references,
	// in first-mention order.
	RoleAttrs [2][]int
	// Symmetric reports whether exchanging t1 and t2 yields the same
	// constraint, in which case unordered pair enumeration suffices.
	// Single-tuple constraints are trivially symmetric.
	Symmetric bool
	// FDAttr, when non-negative, marks the constraint FD-shaped: two tuple
	// variables, no constants, and every predicate compares an attribute
	// of t1 with the same attribute of t2 — with = for each of the Joins
	// (at least one) and with ≠ exactly once, on attribute FDAttr. Two
	// distinct tuples then violate it exactly when their join values are
	// equal and their FDAttr values differ, all of them non-null, so
	// detection can enumerate the violating pairs of a join block instead
	// of evaluating every pair in it. -1 for every other shape.
	FDAttr int
	ds     *dataset.Dataset
}

// BoundPred is a resolved predicate.
type BoundPred struct {
	LeftTuple, LeftAttr int
	Op                  Op
	RightIsConst        bool
	RightTuple          int
	RightAttr           int
	ConstVal            dataset.Value // valid when RightIsConst and the constant was already interned
	ConstStr            string
}

// Reads reports whether the predicate mentions the cell reference.
func (p *BoundPred) Reads(ref CellRef) bool {
	return (p.LeftTuple == ref.TupleVar && p.LeftAttr == ref.Attr) ||
		(!p.RightIsConst && p.RightTuple == ref.TupleVar && p.RightAttr == ref.Attr)
}

// Bind resolves the constraint against the dataset schema.
func (c *Constraint) Bind(ds *dataset.Dataset) (*Bound, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	b := &Bound{Src: c, TupleVars: c.TupleVars, ds: ds}
	for _, p := range c.Predicates {
		bp := BoundPred{Op: p.Op}
		bp.LeftTuple = p.Left.Tuple
		bp.LeftAttr = ds.AttrIndex(p.Left.Attr)
		if bp.LeftAttr < 0 {
			return nil, fmt.Errorf("dc: constraint %q: unknown attribute %q", c.Name, p.Left.Attr)
		}
		b.addRef(bp.LeftTuple, bp.LeftAttr)
		if p.Right.IsConst {
			bp.RightIsConst = true
			bp.ConstStr = p.Right.Const
			if v, ok := ds.Dict().Lookup(p.Right.Const); ok {
				bp.ConstVal = v
			} else {
				bp.ConstVal = -1 // never equal to any interned value
			}
		} else {
			bp.RightTuple = p.Right.Tuple
			bp.RightAttr = ds.AttrIndex(p.Right.Attr)
			if bp.RightAttr < 0 {
				return nil, fmt.Errorf("dc: constraint %q: unknown attribute %q", c.Name, p.Right.Attr)
			}
			b.addRef(bp.RightTuple, bp.RightAttr)
			if bp.Op == Eq && bp.LeftTuple != bp.RightTuple {
				var j [2]int
				j[bp.LeftTuple], j[bp.RightTuple] = bp.LeftAttr, bp.RightAttr
				b.Joins = append(b.Joins, j)
			}
		}
		b.Preds = append(b.Preds, bp)
	}
	b.Symmetric = slices.Equal(b.canonical(false), b.canonical(true))
	b.FDAttr = b.fdAttr()
	return b, nil
}

// fdAttr returns the ≠ attribute of an FD-shaped constraint, -1 when the
// constraint is not one (see Bound.FDAttr).
func (b *Bound) fdAttr() int {
	if b.TupleVars != 2 || len(b.Joins) == 0 {
		return -1
	}
	neq := -1
	for _, p := range b.Preds {
		if p.RightIsConst || p.LeftTuple == p.RightTuple || p.LeftAttr != p.RightAttr {
			return -1
		}
		switch {
		case p.Op == Eq:
		case p.Op == Neq && neq < 0:
			neq = p.LeftAttr
		default:
			return -1
		}
	}
	return neq
}

func (b *Bound) addRef(tupleVar, attr int) {
	if !b.References(tupleVar, attr) {
		b.Refs = append(b.Refs, CellRef{TupleVar: tupleVar, Attr: attr})
		b.RoleAttrs[tupleVar] = append(b.RoleAttrs[tupleVar], attr)
	}
}

// References reports whether a predicate reads attribute attr of tuple
// role (of either role when role is negative).
func (b *Bound) References(role, attr int) bool {
	if role < 0 {
		return slices.Contains(b.RoleAttrs[0], attr) || slices.Contains(b.RoleAttrs[1], attr)
	}
	return slices.Contains(b.RoleAttrs[role], attr)
}

// canonical returns the predicates in a normal form — sides ordered by
// (tuple variable, attribute), an asymmetric operator inverted when its
// sides are exchanged — and sorted, optionally with the tuple variables
// swapped first. Predicate lists with equal canonical forms denote the
// same conjunction.
func (b *Bound) canonical(swapped bool) []BoundPred {
	out := slices.Clone(b.Preds)
	for i := range out {
		p := &out[i]
		if p.RightIsConst {
			p.RightTuple, p.ConstVal = -1, 0 // sorts apart from every reference; ConstStr identifies it
		}
		if swapped && b.TupleVars == 2 {
			p.LeftTuple = 1 - p.LeftTuple
			if !p.RightIsConst {
				p.RightTuple = 1 - p.RightTuple
			}
		}
		if !p.RightIsConst && (p.LeftTuple > p.RightTuple || (p.LeftTuple == p.RightTuple && p.LeftAttr > p.RightAttr)) {
			p.LeftTuple, p.LeftAttr, p.RightTuple, p.RightAttr = p.RightTuple, p.RightAttr, p.LeftTuple, p.LeftAttr
			p.Op = p.Op.Flip()
		}
	}
	slices.SortFunc(out, func(x, y BoundPred) int {
		return cmp.Or(
			cmp.Compare(x.LeftTuple, y.LeftTuple), cmp.Compare(x.LeftAttr, y.LeftAttr), cmp.Compare(x.Op, y.Op),
			cmp.Compare(x.RightTuple, y.RightTuple), cmp.Compare(x.RightAttr, y.RightAttr), cmp.Compare(x.ConstStr, y.ConstStr))
	})
	return out
}

// BindAll binds a set of constraints, failing on the first error.
func BindAll(cs []*Constraint, ds *dataset.Dataset) ([]*Bound, error) {
	out := make([]*Bound, 0, len(cs))
	for _, c := range cs {
		b, err := c.Bind(ds)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// HoldsPred evaluates one bound predicate for tuples (t1,t2). Predicates
// over Null cells never hold, so missing values do not create violations.
func (b *Bound) HoldsPred(i, t1, t2 int) bool { return b.HoldsPredWith(i, t1, t2, nil) }

// Subst is a hypothetical repair: the cell Ref — attribute Ref.Attr of the
// tuple in role Ref.TupleVar — holding Val.
type Subst struct {
	Ref CellRef
	Val dataset.Value
}

// HoldsPredWith is the one place a bound predicate meets values. It
// evaluates predicate i for tuples (t1,t2) as HoldsPred would on a dataset
// in which sub had been applied — how the Section 5.2 relaxation scores a
// candidate: an operand that is the cell reference sub.Ref reads sub.Val,
// every other (all of them under a nil sub) reads the dataset.
func (b *Bound) HoldsPredWith(i, t1, t2 int, sub *Subst) bool {
	p := &b.Preds[i]
	var lv dataset.Value
	if sub != nil && p.LeftTuple == sub.Ref.TupleVar && p.LeftAttr == sub.Ref.Attr {
		lv = sub.Val
	} else {
		lt := t1
		if p.LeftTuple == 1 {
			lt = t2
		}
		lv = b.ds.Get(lt, p.LeftAttr)
	}
	if lv == dataset.Null {
		return false
	}
	rv, rstr := p.ConstVal, p.ConstStr
	if !p.RightIsConst {
		if sub != nil && p.RightTuple == sub.Ref.TupleVar && p.RightAttr == sub.Ref.Attr {
			rv = sub.Val
		} else {
			rt := t1
			if p.RightTuple == 1 {
				rt = t2
			}
			rv = b.ds.Get(rt, p.RightAttr)
		}
		if rv == dataset.Null {
			return false
		}
	}
	switch p.Op {
	case Eq:
		return lv == rv
	case Neq:
		// Interning is bijective, so value inequality is string inequality;
		// an un-interned constant (rv == -1) differs from every cell value.
		return lv != rv
	}
	if !p.RightIsConst {
		rstr = b.ds.Dict().String(rv)
	}
	return Compare(p.Op, b.ds.Dict().String(lv), rstr)
}

// Violates reports whether the pair (t1,t2) violates the constraint, i.e.
// all predicates hold simultaneously. For single-tuple constraints t2 is
// ignored. A tuple never forms a violating pair with itself.
func (b *Bound) Violates(t1, t2 int) bool {
	if b.TupleVars == 2 && t1 == t2 {
		return false
	}
	for i := range b.Preds {
		if !b.HoldsPred(i, t1, t2) {
			return false
		}
	}
	return true
}

// Compare evaluates any operator over strings, comparing numerically when
// both sides parse as numbers (the convention in the DC-discovery
// literature [11]). Equality operators on interned values should use
// Value identity instead; this path serves ordering and similarity
// operators and external callers such as the grounder.
func Compare(op Op, a, b string) bool {
	if op == Sim {
		return text.Similar(a, b)
	}
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	var cmp int
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			cmp = -1
		case fa > fb:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(a, b)
	}
	switch op {
	case Lt:
		return cmp < 0
	case Gt:
		return cmp > 0
	case Leq:
		return cmp <= 0
	case Geq:
		return cmp >= 0
	case Eq:
		return cmp == 0
	case Neq:
		return cmp != 0
	}
	return false
}
