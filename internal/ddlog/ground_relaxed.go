package ddlog

import (
	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

// groundRelaxedDC grounds one single-head relaxation of a denial
// constraint (Section 5.2, Example 6). For the head cell reference
// hr = (tv, A), every variable on attribute A whose tuple plays role tv is
// a head; the remaining predicates are evaluated against initial values
// (the InitValue(…) body atoms of Example 6). Counterpart tuples whose
// initial values complete a violation contribute negative evidence
// against the violating candidate values.
//
// The per-counterpart groundings of a cell are aggregated into one soft
// factor whose value at candidate d is minus the fraction of counterparts
// that d would violate: h ∈ [−1, 0]. Using the fraction rather than the
// raw count keeps duplicate-heavy conflict groups (hundreds of identical
// counterparts) from drowning every other signal, while PaperFactors
// still counts one grounding per counterpart as Example 5 does.
func (gr *grounder) groundRelaxedDC(rule *Rule) error {
	b := gr.db.Bounds[rule.Constraint]
	hr := rule.Head
	key := "rdc|" + rule.Name

	// Split predicates into those referencing the head cell (evaluated
	// per candidate) and body predicates (evaluated on initial values).
	var headPreds, bodyPreds []int
	for i := range b.Preds {
		if predReferences(b, i, hr) {
			headPreds = append(headPreds, i)
		} else {
			bodyPreds = append(bodyPreds, i)
		}
	}

	for vi, c := range gr.out.Cells {
		v := int32(vi)
		if c.Attr != hr.Attr || !gr.cfg.wantFactors(c) || gr.inert(v) {
			continue
		}
		dom := gr.g.Vars[v].Domain
		// Per-candidate violation counters, indexed by domain position,
		// staged in the arena (the old map-keyed counters churned map
		// operations on every counterpart).
		if cap(gr.ar.counts) >= len(dom) {
			gr.ar.counts = gr.ar.counts[:len(dom)]
		} else {
			gr.ar.counts = make([]int32, len(dom))
		}
		counts := gr.ar.counts
		for d := range counts {
			counts[d] = 0
		}
		var total int32
		scale := 1.0
		rc := relaxCtx{b: b, hr: hr, c: c, dom: dom, headPreds: headPreds, bodyPreds: bodyPreds, counts: counts}
		if b.TupleVars == 1 {
			total = gr.relaxSingle(&rc)
		} else {
			total, scale = gr.relaxPair(&rc)
		}
		if total == 0 {
			continue
		}
		h := make([]float64, len(dom))
		any := false
		for d := range dom {
			if cnt := counts[d]; cnt > 0 {
				h[d] = -scale * float64(cnt) / float64(total)
				any = true
				gr.out.Stats.PaperFactors += int64(cnt)
			}
		}
		if !any {
			continue
		}
		wid := gr.g.Weights.ID(key, gr.db.RelaxedDCPrior, false)
		gr.g.AddSoft(v, wid, h)
	}
	return nil
}

// relaxCtx carries one head cell's relaxed-grounding state through the
// counterpart loops. Passing it explicitly (rather than capturing it in
// closures) keeps the per-cell loop free of heap-allocated closures.
type relaxCtx struct {
	b         *dc.Bound
	hr        CellRef
	c         dataset.Cell
	dom       []int32
	headPreds []int
	bodyPreds []int
	counts    []int32
}

// tups returns the (t1, t2) pair with the head tuple in its role.
func (rc *relaxCtx) tups(t2 int) [2]int {
	if rc.hr.TupleVar == 0 {
		return [2]int{rc.c.Tuple, t2}
	}
	return [2]int{t2, rc.c.Tuple}
}

// relaxSingle handles single-tuple constraints: candidates completing the
// violation with the tuple's own initial values get one negative
// grounding. It returns the number of counterpart groundings (1 when the
// body holds).
func (gr *grounder) relaxSingle(rc *relaxCtx) int32 {
	tups := [2]int{rc.c.Tuple, -1}
	for _, i := range rc.bodyPreds {
		if !rc.b.HoldsPred(i, tups[0], tups[1]) {
			return 0
		}
	}
	for d, label := range rc.dom {
		ok := true
		for _, i := range rc.headPreds {
			if !gr.predHyp(rc.b, i, tups, rc.hr, label) {
				ok = false
				break
			}
		}
		if ok {
			rc.counts[d]++
		}
	}
	return 1
}

// relaxPair handles pairwise constraints: counterpart tuples are found via
// a body equality join when one exists, else via an equality predicate on
// the head itself, else by a (capped) scan. It returns the number of
// counterparts whose body predicates held (the grounding denominator) and
// a trust scale: when the conflict context is anchored on a cell that is
// itself noisy (the body-join cell of the head tuple), the testimony is
// halved — the violation may be resolvable by repairing that cell instead,
// the multi-cell blind spot Section 5.2 acknowledges.
func (gr *grounder) relaxPair(rc *relaxCtx) (int32, float64) {
	ds := gr.db.DS
	var total int32

	// Strategy 1: body equality join on initial values.
	if pi, headAttr, otherAttr := gr.bodyEqJoin(rc.b, rc.hr, rc.bodyPreds); pi >= 0 {
		probe := ds.Get(rc.c.Tuple, headAttr)
		if probe == dataset.Null {
			return 0, 1
		}
		scale := 1.0
		// The discount applies only when the join cell has an actual
		// alternative: an inert cell cannot be the repair that resolves
		// the violation.
		if jv := gr.queryVarOf(dataset.Cell{Tuple: rc.c.Tuple, Attr: headAttr}); jv >= 0 && !gr.inert(jv) {
			scale = 0.5
		}
		for _, t2 := range gr.initIndex(otherAttr)[probe] {
			if gr.checkCounterpart(rc, t2) {
				total++
			}
		}
		return total, scale
	}
	// Strategy 2: the head predicate itself is an equality — candidates
	// index directly into the counterpart side. The per-cell dedup set is
	// the arena's epoch-marked tuple set, not a fresh map.
	if pi, otherAttr := gr.headEqJoin(rc.b, rc.hr, rc.headPreds); pi >= 0 {
		idx := gr.initIndex(otherAttr)
		gr.ar.nextSeen(ds.NumTuples())
		for _, label := range rc.dom {
			for _, t2 := range idx[dataset.Value(label)] {
				if !gr.ar.seen(t2) {
					if t2 != rc.c.Tuple {
						total++
					}
					gr.checkCounterpart(rc, t2)
				}
			}
		}
		return total, 1
	}
	// Strategy 3: scan.
	n := ds.NumTuples()
	cap := gr.cfg.MaxScanCounterparts
	cnt := 0
	for t2 := 0; t2 < n; t2++ {
		if t2 == rc.c.Tuple {
			continue
		}
		if gr.checkCounterpart(rc, t2) {
			total++
		}
		cnt++
		if cap > 0 && cnt >= cap {
			break
		}
	}
	return total, 1
}

// checkCounterpart accumulates violation counts for one counterpart and
// reports whether its body predicates held. The caller decides what
// enters the fraction denominator: for a body-equality join the relevant
// counterparts are the body-passers (the conflict context), while for a
// head-equality join every join-matched counterpart is relevant —
// otherwise a candidate with a single conflicting counterpart would
// always score the full −1.
func (gr *grounder) checkCounterpart(rc *relaxCtx, t2 int) bool {
	if t2 == rc.c.Tuple {
		return false
	}
	tups := rc.tups(t2)
	for _, i := range rc.bodyPreds {
		if !rc.b.HoldsPred(i, tups[0], tups[1]) {
			return false
		}
	}
	for d, label := range rc.dom {
		ok := true
		for _, i := range rc.headPreds {
			if !gr.predHyp(rc.b, i, tups, rc.hr, label) {
				ok = false
				break
			}
		}
		if ok {
			rc.counts[d]++
		}
	}
	return true
}

// bodyEqJoin finds a body equality predicate across tuple variables and
// returns its index plus the head-side and counterpart-side attributes.
func (gr *grounder) bodyEqJoin(b *dc.Bound, hr CellRef, bodyPreds []int) (pi, headAttr, otherAttr int) {
	for _, i := range bodyPreds {
		p := &b.Preds[i]
		if p.Op != dc.Eq || p.RightIsConst || p.LeftTuple == p.RightTuple {
			continue
		}
		if p.LeftTuple == hr.TupleVar {
			return i, p.LeftAttr, p.RightAttr
		}
		return i, p.RightAttr, p.LeftAttr
	}
	return -1, 0, 0
}

// headEqJoin finds an equality head predicate whose other side is a cell
// of the counterpart tuple, returning its index and that attribute.
func (gr *grounder) headEqJoin(b *dc.Bound, hr CellRef, headPreds []int) (pi, otherAttr int) {
	for _, i := range headPreds {
		p := &b.Preds[i]
		if p.Op != dc.Eq || p.RightIsConst || p.LeftTuple == p.RightTuple {
			continue
		}
		left := CellRef{TupleVar: p.LeftTuple, Attr: p.LeftAttr}
		right := CellRef{TupleVar: p.RightTuple, Attr: p.RightAttr}
		if left == hr {
			return i, p.RightAttr
		}
		if right == hr {
			return i, p.LeftAttr
		}
	}
	return -1, 0
}

// initIndex returns the initial-value index of attr (value → tuples) from
// the shared index; the grounder's dense attribute-indexed cache skips the
// shared lock on repeat lookups.
func (gr *grounder) initIndex(attr int) map[dataset.Value][]int {
	idx := gr.initIdx[attr]
	if idx == nil {
		idx = gr.shared.Init(attr)
		gr.initIdx[attr] = idx
	}
	return idx
}

// predReferences reports whether predicate i mentions the head cell
// reference.
func predReferences(b *dc.Bound, i int, hr CellRef) bool {
	p := &b.Preds[i]
	if p.LeftTuple == hr.TupleVar && p.LeftAttr == hr.Attr {
		return true
	}
	if !p.RightIsConst && p.RightTuple == hr.TupleVar && p.RightAttr == hr.Attr {
		return true
	}
	return false
}

// predHyp evaluates predicate i over the tuple pair with the head cell
// hypothetically set to label d (initial values everywhere else).
func (gr *grounder) predHyp(b *dc.Bound, i int, tups [2]int, hr CellRef, d int32) bool {
	p := &b.Preds[i]
	ds := gr.db.DS
	resolve := func(tupleVar, attr int) dataset.Value {
		if tupleVar == hr.TupleVar && attr == hr.Attr {
			return dataset.Value(d)
		}
		t := tups[tupleVar]
		if t < 0 {
			return dataset.Null
		}
		return ds.Get(t, attr)
	}
	lv := resolve(p.LeftTuple, p.LeftAttr)
	if lv == dataset.Null {
		return false
	}
	var rv dataset.Value
	var rstr string
	rightConst := false
	if p.RightIsConst {
		rv = p.ConstVal
		rstr = p.ConstStr
		rightConst = true
	} else {
		rv = resolve(p.RightTuple, p.RightAttr)
		if rv == dataset.Null {
			return false
		}
	}
	switch p.Op {
	case dc.Eq:
		return lv == rv
	case dc.Neq:
		return lv != rv
	}
	dict := ds.Dict()
	ls := dict.String(lv)
	if !rightConst {
		rstr = dict.String(rv)
	}
	return dc.Compare(p.Op, ls, rstr)
}
