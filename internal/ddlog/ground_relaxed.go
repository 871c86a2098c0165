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
	rc := relaxCtx{b: b, hr: hr, join: -1}
	for i := range b.Preds {
		if b.Preds[i].Reads(hr) {
			rc.headPreds = append(rc.headPreds, i)
		} else {
			rc.bodyPreds = append(rc.bodyPreds, i)
		}
	}
	// Counterparts are found through the first join that sits in the body —
	// its head-role side is another attribute than the head's — or, failing
	// that, through the first join on the head itself.
	for i, j := range b.Joins {
		if j[hr.TupleVar] != hr.Attr {
			rc.join = i
			break
		}
		if rc.join < 0 {
			rc.join = i
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
		rc.c, rc.dom, rc.counts = c, dom, counts
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
// closures) keeps the per-cell loop free of heap-allocated closures. The
// rule-level fields are set once per rule, the cell-level ones per head cell.
type relaxCtx struct {
	b         *dc.Bound
	hr        CellRef
	join      int // index into b.Joins of the join counterparts are found through, -1 = scan
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
		hyp := dc.Subst{Ref: rc.hr, Val: dataset.Value(label)}
		for _, i := range rc.headPreds {
			if !rc.b.HoldsPredWith(i, tups[0], tups[1], &hyp) {
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

	if rc.join >= 0 {
		j := rc.b.Joins[rc.join]
		headAttr, otherAttr := j[rc.hr.TupleVar], j[1-rc.hr.TupleVar]
		if headAttr != rc.hr.Attr {
			// Strategy 1: body equality join on initial values.
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
		hyp := dc.Subst{Ref: rc.hr, Val: dataset.Value(label)}
		for _, i := range rc.headPreds {
			if !rc.b.HoldsPredWith(i, tups[0], tups[1], &hyp) {
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
