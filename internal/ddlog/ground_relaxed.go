package ddlog

import (
	"encoding/binary"
	"slices"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/factor"
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
//
// Counterparts are not walked per head cell. An FD-shaped constraint
// [K = K', V ≠ V'] (dc.Bound.FDAttr) counts them from block histograms of
// V over K (see relaxFD); any other shape reads them from a counterpart
// table (see counterTable) shared by every head whose tuple agrees on the
// values the rule reads, so a cell's cost is the number of distinct
// counterpart value groups, not of counterparts.
func (gr *grounder) groundRelaxedDC(rule *Rule) {
	b := gr.db.Bounds[rule.Constraint]
	hr := rule.Head
	key := factor.Tie{Family: TieRelaxed, A: gr.names.ID(rule.Name)}

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
	if b.TupleVars == 2 {
		// Counterparts are found through the first join that sits in the
		// body — its head-role side is another attribute than the head's —
		// or, failing that, through the first join on the head itself.
		for i, j := range b.Joins {
			if j[hr.TupleVar] != hr.Attr {
				rc.join = i
				break
			}
			if rc.join < 0 {
				rc.join = i
			}
		}
		switch {
		case b.FDAttr < 0:
			for _, a := range b.RoleAttrs[hr.TupleVar] {
				if a != hr.Attr {
					rc.ctxAttrs = append(rc.ctxAttrs, a)
				}
			}
			rc.cpAttrs = b.RoleAttrs[1-hr.TupleVar]
			rc.tables = gr.shared.relaxed(b, hr)
		case !gr.fdHistograms(&rc):
			return
		}
	}

	for vi, c := range gr.out.Cells {
		v := int32(vi)
		if c.Attr != hr.Attr || gr.inert(v) {
			continue
		}
		dom := gr.g.Vars[v].Domain
		// Per-candidate violation counters, indexed by domain position,
		// staged in the arena.
		gr.ar.counts = resize(gr.ar.counts, len(dom))
		counts := gr.ar.counts
		clear(counts)
		var total int32
		scale := 1.0
		rc.c, rc.dom, rc.counts = c, dom, counts
		switch {
		case b.TupleVars == 1:
			total = gr.relaxSingle(&rc)
		case rc.all != nil:
			total, scale = gr.relaxFD(&rc)
		default:
			total, scale = gr.relaxPair(&rc)
		}
		if total == 0 {
			continue
		}
		gr.ar.h = resize(gr.ar.h, len(dom))
		h := gr.ar.h
		any := false
		for d := range dom {
			h[d] = 0
			if cnt := counts[d]; cnt > 0 {
				h[d] = -scale * float64(cnt) / float64(total)
				any = true
				gr.out.Stats.PaperFactors += int64(cnt)
			}
		}
		if !any {
			continue
		}
		if wid, ok := gr.weightFor(key, gr.db.RelaxedDCPrior, false); ok {
			gr.g.AddSoft(v, wid, h)
		}
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}

// relaxCtx carries one head cell's relaxed-grounding state through the
// counting routines. Passing it explicitly (rather than capturing it in
// closures) keeps the per-cell loop free of heap-allocated closures. The
// rule-level fields are set once per rule, the cell-level ones per head cell.
type relaxCtx struct {
	b    *dc.Bound
	hr   CellRef
	join int // index into b.Joins of the join counterparts are found through, -1 = scan
	// ctxAttrs are the head role's attributes other than the head's (the
	// body-join probe's among them): a head tuple's values on them are
	// its context. cpAttrs are the counterpart role's attributes, whose
	// values group counterparts.
	ctxAttrs []int
	cpAttrs  []int
	tables   *relaxTables
	// An FD-shaped rule counts from all, the histogram of the FD attribute
	// over the key attributes keyAttrs (ascending), in which the head sits
	// at position pos (-1 when the head is the FD attribute). rest is the
	// histogram over keyAttrs without the head, for a head on one attribute
	// of a key of two or more.
	all, rest *dataset.Histogram
	keyAttrs  []int
	pos       int
	headPreds []int
	bodyPreds []int
	c         dataset.Cell
	dom       []int32
	counts    []int32
}

// tups returns the (t1, t2) pair with the head tuple in its role.
func (rc *relaxCtx) tups(t2 int) [2]int {
	if rc.hr.TupleVar == 0 {
		return [2]int{rc.c.Tuple, t2}
	}
	return [2]int{t2, rc.c.Tuple}
}

// bodyHolds reports whether every body predicate holds for the head tuple
// against counterpart t2 (-1 for single-tuple constraints).
func (rc *relaxCtx) bodyHolds(t2 int) bool {
	tups := rc.tups(t2)
	for _, i := range rc.bodyPreds {
		if !rc.b.HoldsPred(i, tups[0], tups[1]) {
			return false
		}
	}
	return true
}

// count adds n to counts[d] for every candidate d whose substitution into
// the head cell makes every head predicate hold against counterpart t2.
func (rc *relaxCtx) count(t2 int, n int32) {
	tups := rc.tups(t2)
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
			rc.counts[d] += n
		}
	}
}

// uncount takes back the pair (head tuple, t2) that a counterpart table
// counted although the cell must not — its own tuple, or a tuple past a
// scan cap. It reports whether t2 had passed the body (entering the
// table's passed count).
func (rc *relaxCtx) uncount(t2 int) bool {
	if !rc.bodyHolds(t2) {
		return false
	}
	rc.count(t2, -1)
	return true
}

// relaxSingle handles single-tuple constraints: candidates completing the
// violation with the tuple's own initial values get one negative
// grounding. It returns the number of counterpart groundings (1 when the
// body holds).
func (gr *grounder) relaxSingle(rc *relaxCtx) int32 {
	if !rc.bodyHolds(-1) {
		return 0
	}
	rc.count(-1, 1)
	return 1
}

// fdHistograms resolves an FD-shaped rule's histograms into rc. It
// reports false when the FD attribute is also a key attribute: no pair
// then violates the constraint, and the rule grounds nothing.
func (gr *grounder) fdHistograms(rc *relaxCtx) bool {
	v := rc.b.FDAttr
	key := gr.ar.keyAttrs[:0]
	for _, j := range rc.b.Joins {
		if !slices.Contains(key, j[0]) {
			key = append(key, j[0])
		}
	}
	slices.Sort(key)
	gr.ar.keyAttrs = key
	if slices.Contains(key, v) {
		return false
	}
	rc.keyAttrs = key
	rc.all = gr.shared.histogram(key, v)
	rc.pos, rc.rest = slices.Index(key, rc.hr.Attr), nil
	if rc.pos >= 0 && len(key) > 1 {
		rest := append(gr.ar.restAttrs[:0], key[:rc.pos]...)
		rest = append(rest, key[rc.pos+1:]...)
		gr.ar.restAttrs = rest
		rc.rest = gr.shared.histogram(rest, v)
	}
	return true
}

// relaxFD counts an FD-shaped rule's counterparts [K = K', V ≠ V'] from
// block histograms, to the integers relaxPair's counterpart tables count:
// nulls satisfy no predicate, so a block holds the tuples whose key is
// non-null, and H(key, v) below is the number of them holding v on V.
//
//   - Head on V, found through the first join (strategy 1): the
//     counterparts are the head tuple's block but itself, and candidate d
//     conflicts with those holding a non-null V other than d:
//     total = rows − 1, counts[d] = nonNull − H(key, d) − [V_t ≠ Null ∧ d ≠ V_t].
//   - Head on the only key attribute (strategy 2): candidate d joins the
//     block of key d, which conflicts with the head's own V:
//     total = Σ_d rows(d) − [K_t ∈ dom], counts[d] = nonNull(d) − H(d, V_t).
//   - Head on one key attribute of several (strategy 1, found through
//     another): the body fixes the rest of the key and V ≠ V_t, so total
//     reads the histogram over the key without the head —
//     counterparts null on the head's attribute pass the body too — and
//     counts[d] the full key with d in the head's place:
//     total = nonNull' − H'(key'_t, V_t), counts[d] = nonNull − H(key_t[head := d], V_t).
//
// The head tuple never conflicts with itself: the V term takes it back
// from the first case and H(·, V_t) from the others.
func (gr *grounder) relaxFD(rc *relaxCtx) (int32, float64) {
	ds := gr.db.DS
	t := rc.c.Tuple
	vt := ds.Get(t, rc.b.FDAttr)
	if rc.pos >= 0 && rc.rest == nil {
		var total int32
		for d, label := range rc.dom {
			k := rc.all.Find([]dataset.Value{dataset.Value(label)})
			total += rc.all.Rows(k)
			if vt != dataset.Null {
				rc.counts[d] = rc.all.NonNull(k) - rc.all.Count(k, vt)
			}
		}
		if own := ds.Get(t, rc.hr.Attr); own != dataset.Null && slices.Contains(rc.dom, int32(own)) {
			total--
		}
		return total, 1
	}
	var total int32
	if rc.pos < 0 {
		k := rc.all.Block(t)
		if k < 0 {
			return 0, 1
		}
		nonNull := rc.all.NonNull(k)
		for d, label := range rc.dom {
			if v := dataset.Value(label); v != dataset.Null {
				rc.counts[d] = nonNull - rc.all.Count(k, v)
				if vt != dataset.Null && v != vt {
					rc.counts[d]--
				}
			}
		}
		total = rc.all.Rows(k) - 1
	} else {
		r := rc.rest.Block(t)
		if r < 0 || vt == dataset.Null {
			return 0, 1
		}
		key := gr.ar.keyVals[:0]
		for _, a := range rc.keyAttrs {
			key = append(key, ds.Get(t, a))
		}
		gr.ar.keyVals = key
		for d, label := range rc.dom {
			key[rc.pos] = dataset.Value(label)
			k := rc.all.Find(key)
			rc.counts[d] = rc.all.NonNull(k) - rc.all.Count(k, vt)
		}
		total = rc.rest.NonNull(r) - rc.rest.Count(r, vt)
	}
	// Strategy 1's discount, as relaxPair applies it: the join cell the
	// counterparts were found through may be the error instead.
	scale := 1.0
	if total > 0 && gr.repairable(dataset.Cell{Tuple: t, Attr: rc.b.Joins[rc.join][rc.hr.TupleVar]}) {
		scale = 0.5
	}
	return total, scale
}

// relaxPair handles pairwise constraints: counterpart tuples are found via
// a body equality join when one exists, else via an equality predicate on
// the head itself, else by a (capped) scan. It returns the number of
// relevant counterparts (the grounding denominator) and a trust scale:
// when the conflict context is anchored on a cell that is itself noisy
// (the body-join cell of the head tuple), the testimony is halved — the
// violation may be resolvable by repairing that cell instead, the
// multi-cell blind spot Section 5.2 acknowledges.
//
// For a body-equality join or a scan the relevant counterparts are the
// body-passers (the conflict context), while for a head-equality join
// every join-matched counterpart is relevant — otherwise a candidate with
// a single conflicting counterpart would always score the full −1. Every
// strategy counts through countTable; the head tuple itself is never its
// own counterpart.
func (gr *grounder) relaxPair(rc *relaxCtx) (int32, float64) {
	ds := gr.db.DS
	t := rc.c.Tuple

	if rc.join >= 0 {
		j := rc.b.Joins[rc.join]
		headAttr, otherAttr := j[rc.hr.TupleVar], j[1-rc.hr.TupleVar]
		if headAttr != rc.hr.Attr {
			// Strategy 1: body equality join on initial values. The probe
			// is the head tuple's value on headAttr, one of its context
			// attributes.
			probe := ds.Get(t, headAttr)
			if probe == dataset.Null {
				return 0, 1
			}
			scale := 1.0
			// The discount applies only when the join cell has an actual
			// alternative: a cell with one candidate cannot be the repair
			// that resolves the violation.
			if gr.repairable(dataset.Cell{Tuple: t, Attr: headAttr}) {
				scale = 0.5
			}
			total := gr.countTable(rc, 0, gr.shared.Init(otherAttr).Of(probe), 0).passed
			if ds.Get(t, otherAttr) == probe && rc.uncount(t) {
				total--
			}
			return total, scale
		}
		// Strategy 2: the head predicate itself is an equality — candidates
		// index directly into the counterpart side, one table per label.
		// Domains hold distinct labels, so the lists are disjoint.
		idx := gr.shared.Init(otherAttr)
		var total int32
		for _, label := range rc.dom {
			total += gr.countTable(rc, label, idx.Of(dataset.Value(label)), 0).joined
		}
		if own := ds.Get(t, otherAttr); own != dataset.Null && slices.Contains(rc.dom, int32(own)) {
			total--
			rc.uncount(t)
		}
		return total, 1
	}
	// Strategy 3: scan the first MaxScanCounterparts tuples other than the
	// head's (all of them at 0). The table covers one tuple more than the
	// cap, tuples [0, m); the head's tuple, or past it the last of them,
	// is taken back.
	n := ds.NumTuples()
	m := n
	if c := gr.cfg.MaxScanCounterparts; c > 0 && c < n-1 {
		m = c + 1
	}
	total := gr.countTable(rc, int32(m), nil, m).passed
	excl := t
	if t >= m {
		excl = m - 1
	}
	if rc.uncount(excl) {
		total--
	}
	return total, 1
}

// countTable adds to the cell's counters the head counts of every
// counterpart in its context's table, and returns the table. A context is
// (tag, the head tuple's values on ctxAttrs): tag tells the counterpart
// lists of one rule apart — a candidate label under strategy 2, the scan
// length under strategy 3. Two heads in one context see the same
// counterparts, pass the body with the same ones and, per candidate,
// violate with the same ones, so the table is built once — from list, or
// from tuples [0, upto) when list is nil — and shared through the
// SharedIndex by every grounding of the run. Each group is counted with
// one predicate evaluation per candidate.
func (gr *grounder) countTable(rc *relaxCtx, tag int32, list []int32, upto int) *counterTable {
	ds := gr.db.DS
	key := binary.LittleEndian.AppendUint32(gr.ar.ctxKey[:0], uint32(tag))
	for _, a := range rc.ctxAttrs {
		key = binary.LittleEndian.AppendUint32(key, uint32(ds.Get(rc.c.Tuple, a)))
	}
	gr.ar.ctxKey = key
	tb := rc.tables.get(key)
	if tb == nil {
		tb = rc.tables.put(key, gr.buildTable(rc, list, upto))
	}
	for _, g := range tb.groups {
		rc.count(int(g.rep), g.n)
	}
	return tb
}

// buildTable evaluates the body of every counterpart in list (or in
// [0, upto)) against the head tuple and groups the passers by their values
// on the counterpart role's attributes. The head tuple itself is included
// like any other: for the heads of other tuples in the context it is a
// counterpart.
func (gr *grounder) buildTable(rc *relaxCtx, list []int32, upto int) *counterTable {
	ds := gr.db.DS
	if gr.ar.groupOf == nil {
		gr.ar.groupOf = make(map[string]int32)
	}
	groupOf := gr.ar.groupOf
	clear(groupOf)
	n := upto
	if list != nil {
		n = len(list)
	}
	tb := &counterTable{joined: int32(n)}
	for i := 0; i < n; i++ {
		t2 := i
		if list != nil {
			t2 = int(list[i])
		}
		if !rc.bodyHolds(t2) {
			continue
		}
		tb.passed++
		k := gr.ar.groupKey[:0]
		for _, a := range rc.cpAttrs {
			k = binary.LittleEndian.AppendUint32(k, uint32(ds.Get(t2, a)))
		}
		gr.ar.groupKey = k
		if gi, ok := groupOf[string(k)]; ok {
			tb.groups[gi].n++
			continue
		}
		groupOf[string(k)] = int32(len(tb.groups))
		tb.groups = append(tb.groups, counterGroup{rep: int32(t2), n: 1})
	}
	return tb
}
