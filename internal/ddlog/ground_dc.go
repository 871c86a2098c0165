package ddlog

import (
	"slices"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/factor"
)

// naryBuild accumulates one folded denial-constraint factor: predicates
// over query-variable slots, with clean and evidence cells folded to
// constants and trivially-satisfied predicates removed. The grounder owns
// one and refolds into it for every pair (Graph.AddNary copies what it
// keeps); a factor has a handful of variables, so slots are found by
// scanning them.
type naryBuild struct {
	vars   []int32
	preds  []factor.Pred
	states int64 // product of slot domain sizes (paper-style grounding count)
}

func (nb *naryBuild) slot(v int32, g *factor.Graph) int32 {
	if s := slices.Index(nb.vars, v); s >= 0 {
		return int32(s)
	}
	nb.vars = append(nb.vars, v)
	// Saturate instead of overflowing: unpruned domains make the
	// paper-style grounding count astronomically large (Example 5).
	const maxStates = int64(1) << 50
	if nb.states < maxStates {
		nb.states *= int64(len(g.Vars[v].Domain))
	}
	return int32(len(nb.vars) - 1)
}

// foldFactor builds the compact factor for constraint b over the tuple
// pair (t1, t2) into gr.nb. It returns nil when the factor is constant (no
// query variable remains, a predicate is unsatisfiable, or the conjunction
// is already refuted by initial values) and therefore must not be
// grounded.
func (gr *grounder) foldFactor(b *dc.Bound, t1, t2 int) *naryBuild {
	nb := &gr.nb
	nb.vars, nb.preds, nb.states = nb.vars[:0], nb.preds[:0], 1
	ds := gr.db.DS
	tup := [2]int{t1, t2}
	for i := range b.Preds {
		p := &b.Preds[i]
		leftCell := dataset.Cell{Tuple: tup[p.LeftTuple], Attr: p.LeftAttr}
		leftVar := gr.queryVarOf(leftCell)
		rightVar := int32(-1)
		var rightCell dataset.Cell
		if !p.RightIsConst {
			rightCell = dataset.Cell{Tuple: tup[p.RightTuple], Attr: p.RightAttr}
			rightVar = gr.queryVarOf(rightCell)
		}
		if leftVar < 0 && rightVar < 0 {
			// Fully constant predicate: decided by initial values now.
			if !b.HoldsPred(i, t1, t2) {
				return nil // conjunction can never hold
			}
			continue // predicate always holds; drop it from the factor
		}
		op := p.Op
		// Normalize so the variable side is on the left.
		lv, rv := leftVar, rightVar
		lc, rc := leftCell, rightCell
		rightIsConst := p.RightIsConst
		constLabel := int32(p.ConstVal)
		if lv < 0 {
			lv, rv = rv, lv
			lc, rc = rc, lc
			op = op.Flip()
			rightIsConst = false
		}
		pred := factor.Pred{LeftSlot: nb.slot(lv, gr.g), Op: uint8(op)}
		switch {
		case rv >= 0:
			pred.RightSlot = nb.slot(rv, gr.g)
		case rightIsConst:
			pred.RightSlot = -1
			pred.RightConst = constLabel
		default:
			// Right side is a clean or evidence cell: fold its initial value.
			init := ds.Get(rc.Tuple, rc.Attr)
			if init == dataset.Null {
				return nil // predicates over nulls never hold
			}
			pred.RightSlot = -1
			pred.RightConst = int32(init)
		}
		// Cheap unsatisfiability checks against the variable's domain.
		if pred.RightSlot < 0 {
			dom := gr.g.Vars[lv].Domain
			switch dc.Op(pred.Op) {
			case dc.Eq:
				if !containsLabel(dom, pred.RightConst) {
					return nil
				}
			case dc.Neq:
				if len(dom) == 1 && dom[0] == pred.RightConst {
					return nil
				}
			}
		}
		nb.preds = append(nb.preds, pred)
	}
	if len(nb.preds) == 0 || len(nb.vars) == 0 {
		return nil // constant factor: uniform energy shift only
	}
	return nb
}

func containsLabel(dom []int32, l int32) bool {
	for _, d := range dom {
		if d == l {
			return true
		}
	}
	return false
}

// tuplesWithQueryRef returns the tuples that own at least one query
// variable among the constraint's attribute references for the given
// tuple role (or either role when role == -1). Dedup goes through the
// arena's epoch-marked tuple set, so repeated rule groundings allocate no
// per-call maps.
func (gr *grounder) tuplesWithQueryRef(b *dc.Bound, role int) []int {
	gr.ar.nextSeen(gr.db.DS.NumTuples())
	var out []int
	for vi, c := range gr.out.Cells {
		if gr.g.Vars[vi].Evidence || !b.References(role, c.Attr) {
			continue
		}
		if !gr.ar.seen(c.Tuple) {
			out = append(out, c.Tuple)
		}
	}
	return out
}

// groundDC grounds Algorithm 1's correlation factors for one constraint.
func (gr *grounder) groundDC(rule *Rule) error {
	ci := rule.Constraint
	b := gr.db.Bounds[ci]
	name := gr.names.ID(rule.Name)
	wid := gr.g.Weights.Tie(factor.Tie{Family: TieDC, A: name}, rule.FixedWeight, true)

	// Boundary damping (split components): pairs admits rejects ground
	// anyway, at a damped fixed weight under a distinct tying key. The
	// out-of-shard side holds no variable in this shard's graph, so
	// foldFactor's clean-cell path folds it to its observed value — the
	// cavity assignment.
	damp := gr.db.Boundary
	var dampWid int32
	if damp > 0 {
		dampWid = gr.g.Weights.Tie(factor.Tie{Family: TieDamped, A: name}, rule.FixedWeight*damp, true)
	}

	emit := func(t1, t2 int) {
		w := wid
		if !gr.admits(t1, b.RoleAttrs[0]) || !gr.admits(t2, b.RoleAttrs[1]) {
			if damp <= 0 {
				return
			}
			w = dampWid
		}
		if gr.db.GroupIndex != nil && !gr.sameGroup(ci, t1, t2) {
			return
		}
		nb := gr.foldFactor(b, t1, t2)
		if nb == nil {
			return
		}
		gr.g.AddNary(nb.vars, nb.preds, w)
		gr.out.Stats.PaperFactors += nb.states
	}

	if b.TupleVars == 1 {
		for _, t := range gr.tuplesWithQueryRef(b, 0) {
			emit(t, -1)
		}
		return nil
	}

	symmetric := b.Symmetric
	seen := make(map[uint64]struct{}) // ordered pairs, t1 in the high half
	emitPair := func(t1, t2 int) {
		if t1 == t2 {
			return
		}
		if symmetric && t1 > t2 {
			t1, t2 = t2, t1
		}
		key := uint64(t1)<<32 | uint64(t2)
		if _, ok := seen[key]; ok {
			return
		}
		seen[key] = struct{}{}
		emit(t1, t2)
	}

	if len(b.Joins) == 0 {
		return gr.groundDCScan(b, symmetric, emitPair)
	}
	la, ra := b.Joins[0][0], b.Joins[0][1]

	// Index every tuple under every label its t2-role join cell can take
	// (candidates for noisy cells, initial value otherwise), so pairs that
	// only violate under a hypothetical repair are still found.
	bucketR := gr.shared.Candidates(ra)
	outer := 0
	if symmetric {
		outer = -1 // either role covers all pairs
	}
	for _, t1 := range gr.tuplesWithQueryRef(b, outer) {
		for _, l := range gr.candidateLabels(dataset.Cell{Tuple: t1, Attr: la}) {
			for _, t2 := range bucketR.Of(dataset.Value(l)) {
				emitPair(t1, int(t2))
			}
		}
	}
	if !symmetric {
		bucketL := gr.shared.Candidates(la)
		for _, t2 := range gr.tuplesWithQueryRef(b, 1) {
			for _, l := range gr.candidateLabels(dataset.Cell{Tuple: t2, Attr: ra}) {
				for _, t1 := range bucketL.Of(dataset.Value(l)) {
					emitPair(int(t1), t2)
				}
			}
		}
	}
	return nil
}

// groundDCScan is the pair-scan fallback for constraints with no equality
// join predicate. The outer loop covers tuples that are dirty in either
// role; both orientations are emitted and constant factors fold away.
func (gr *grounder) groundDCScan(b *dc.Bound, symmetric bool, emitPair func(t1, t2 int)) error {
	n := gr.db.DS.NumTuples()
	cap := gr.cfg.MaxScanCounterparts
	for _, t1 := range gr.tuplesWithQueryRef(b, -1) {
		cnt := 0
		for t2 := 0; t2 < n; t2++ {
			if t2 == t1 {
				continue
			}
			emitPair(t1, t2)
			if !symmetric {
				emitPair(t2, t1)
			}
			cnt++
			if cap > 0 && cnt >= cap {
				break
			}
		}
	}
	return nil
}
