// Package ddlog implements the declarative layer HoloClean compiles to
// (Sections 3.2 and 4): a probabilistic program of DDlog-style inference
// rules over materialized relations, and the grounding engine that
// evaluates those rules to emit a factor graph. It replaces the
// DeepDive/DDlog/Postgres stack of the original system.
//
// The relations of Section 4.1 — Tuple(t), InitValue(t,a,v),
// Domain(t,a,d), HasFeature(t,a,f), Matched(t,a,d,k) — are materialized
// in a Database; rules reference them by kind rather than by a free-form
// Datalog body, which is faithful to how HoloClean's compiler emits a
// fixed repertoire of rule shapes (one per repair signal) while keeping
// grounding efficient.
package ddlog

import (
	"fmt"
	"strings"

	"holoclean/internal/dc"
)

// RuleKind enumerates the rule shapes HoloClean's compiler emits.
type RuleKind int

const (
	// RandomVariables declares the random-variable relation:
	//   Value?(t,a,d) :- Domain(t,a,d)
	RandomVariables RuleKind = iota
	// FeatureFactors encodes quantitative statistics:
	//   Value?(t,a,d) :- HasFeature(t,a,f) weight = w(d,f)
	FeatureFactors
	// MatchedFactors encodes external data:
	//   Value?(t,a,d) :- Matched(t,a,d,k) weight = w(k)
	MatchedFactors
	// MinimalityFactors encodes the minimality prior:
	//   Value?(t,a,d) :- InitValue(t,a,d) weight = w_min
	MinimalityFactors
	// DCFactors encodes one denial constraint as correlation factors
	// (Algorithm 1):
	//   !(∧ Value?(...)) :- Tuple(t1),Tuple(t2),[scope] weight = w_dc
	DCFactors
	// RelaxedDCFactors encodes one single-head relaxation of a denial
	// constraint (Section 5.2, Example 6):
	//   !Value?(tv,A,v) :- InitValue(...),Tuple(t1),Tuple(t2),[scope]
	//   weight = w(σ, A)
	RelaxedDCFactors
)

// CellRef identifies one (tuple variable, attribute) reference inside a
// denial constraint, e.g. t1.Zip; a constraint's are dc.Bound.Refs.
type CellRef = dc.CellRef

// Rule is one inference rule of the program.
type Rule struct {
	Kind RuleKind
	Name string

	// Constraint indexes Database.Bounds for DCFactors/RelaxedDCFactors.
	Constraint int
	// Head is the single-head cell reference for RelaxedDCFactors.
	Head CellRef
	// FixedWeight holds the constant weight for MinimalityFactors and
	// DCFactors (learnable-weight kinds ignore it).
	FixedWeight float64
	// Partition restricts DC grounding to Algorithm 3 tuple groups.
	Partition bool
}

// Program is an ordered list of rules — the probabilistic program
// HoloClean's compiler generates.
type Program struct {
	Rules []*Rule
}

// Add appends a rule.
func (p *Program) Add(r *Rule) { p.Rules = append(p.Rules, r) }

// String renders the whole program as DDlog-style text.
func (p *Program) String() string { return p.Render(nil) }

// Render renders the program, using bound constraints (when supplied) to
// expand DC rules into the notation of Examples 4 and 6.
func (p *Program) Render(bounds []*dc.Bound) string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.Render(bounds))
		b.WriteByte('\n')
	}
	return b.String()
}

// Render renders one rule as DDlog-style text.
func (r *Rule) Render(bounds []*dc.Bound) string {
	switch r.Kind {
	case RandomVariables:
		return "Value?(t, a, d) :- Domain(t, a, d)"
	case FeatureFactors:
		return "Value?(t, a, d) :- HasFeature(t, a, f)  weight = w(d, f)"
	case MatchedFactors:
		return "Value?(t, a, d) :- Matched(t, a, d, k)  weight = w(k)"
	case MinimalityFactors:
		return fmt.Sprintf("Value?(t, a, d) :- InitValue(t, a, d)  weight = %g", r.FixedWeight)
	case DCFactors:
		body := "Tuple(t1), Tuple(t2)"
		head := fmt.Sprintf("!(conj of Value? atoms of %s)", r.Name)
		scope := ""
		if bounds != nil && r.Constraint < len(bounds) {
			head, scope = renderDCHead(bounds[r.Constraint])
		}
		return fmt.Sprintf("%s :- %s%s  weight = %g", head, body, scope, r.FixedWeight)
	case RelaxedDCFactors:
		head := fmt.Sprintf("!Value?(t%d, attr#%d, v)", r.Head.TupleVar+1, r.Head.Attr)
		scope := ""
		if bounds != nil && r.Constraint < len(bounds) {
			head, scope = renderRelaxedHead(bounds[r.Constraint], r.Head)
		}
		return fmt.Sprintf("%s :- InitValue(..), Tuple(t1), Tuple(t2)%s  weight = w(%s)", head, scope, r.Name)
	}
	return "<unknown rule>"
}

// renderDCHead renders the Algorithm 1 head/scope for a bound constraint,
// as in Example 4.
func renderDCHead(b *dc.Bound) (head, scope string) {
	var atoms, conds []string
	v := 0
	for _, p := range b.Preds {
		lv := fmt.Sprintf("x%d", v)
		atoms = append(atoms, fmt.Sprintf("Value?(t%d, a%d, %s)", p.LeftTuple+1, p.LeftAttr, lv))
		v++
		if p.RightIsConst {
			conds = append(conds, fmt.Sprintf("%s %s %q", lv, p.Op, p.ConstStr))
			continue
		}
		rv := fmt.Sprintf("x%d", v)
		atoms = append(atoms, fmt.Sprintf("Value?(t%d, a%d, %s)", p.RightTuple+1, p.RightAttr, rv))
		v++
		conds = append(conds, fmt.Sprintf("%s %s %s", lv, p.Op, rv))
	}
	return "!(" + strings.Join(atoms, " ∧ ") + ")", ", [" + strings.Join(conds, ", ") + "]"
}

// renderRelaxedHead renders the Example 6 style single-head rule.
func renderRelaxedHead(b *dc.Bound, head CellRef) (h, scope string) {
	var conds []string
	for _, p := range b.Preds {
		if p.RightIsConst {
			conds = append(conds, fmt.Sprintf("t%d.a%d %s %q", p.LeftTuple+1, p.LeftAttr, p.Op, p.ConstStr))
		} else {
			conds = append(conds, fmt.Sprintf("t%d.a%d %s t%d.a%d", p.LeftTuple+1, p.LeftAttr, p.Op, p.RightTuple+1, p.RightAttr))
		}
	}
	return fmt.Sprintf("!Value?(t%d, a%d, v)", head.TupleVar+1, head.Attr),
		", [" + strings.Join(conds, ", ") + "]"
}
