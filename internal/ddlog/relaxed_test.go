package ddlog

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/factor"
	"holoclean/internal/pruning"
)

// refGroundRelaxedDC is the relaxed-DC grounding as a per-counterpart
// loop: every head cell walks its whole counterpart list and evaluates
// each counterpart's body and head predicates. It is the definition the
// counterpart tables of groundRelaxedDC must reproduce bit for bit.
func (gr *grounder) refGroundRelaxedDC(rule *Rule) {
	b := gr.db.Bounds[rule.Constraint]
	hr := rule.Head
	rc := relaxCtx{b: b, hr: hr, join: -1}
	for i := range b.Preds {
		if b.Preds[i].Reads(hr) {
			rc.headPreds = append(rc.headPreds, i)
		} else {
			rc.bodyPreds = append(rc.bodyPreds, i)
		}
	}
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
		if c.Attr != hr.Attr || gr.inert(v) {
			continue
		}
		dom := gr.g.Vars[v].Domain
		counts := make([]int32, len(dom))
		rc.c, rc.dom, rc.counts = c, dom, counts
		var total int32
		scale := 1.0
		if b.TupleVars == 1 {
			if gr.refCheck(&rc, -1) {
				total = 1
			}
		} else {
			total, scale = gr.refRelaxPair(&rc)
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
		if any {
			gr.g.AddSoft(v, gr.g.Weights.Tie(factor.Tie{Family: TieRelaxed, A: gr.names.ID(rule.Name)}, gr.db.RelaxedDCPrior, false), h)
		}
	}
}

func (gr *grounder) refRelaxPair(rc *relaxCtx) (int32, float64) {
	ds := gr.db.DS
	var total int32
	if rc.join >= 0 {
		j := rc.b.Joins[rc.join]
		headAttr, otherAttr := j[rc.hr.TupleVar], j[1-rc.hr.TupleVar]
		if headAttr != rc.hr.Attr {
			probe := ds.Get(rc.c.Tuple, headAttr)
			if probe == dataset.Null {
				return 0, 1
			}
			scale := 1.0
			if jv := gr.queryVarOf(dataset.Cell{Tuple: rc.c.Tuple, Attr: headAttr}); jv >= 0 && !gr.inert(jv) {
				scale = 0.5
			}
			for _, t2 := range gr.shared.Init(otherAttr).Of(probe) {
				if gr.refCheck(rc, int(t2)) {
					total++
				}
			}
			return total, scale
		}
		seen := make(map[int]bool)
		for _, label := range rc.dom {
			for _, t32 := range gr.shared.Init(otherAttr).Of(dataset.Value(label)) {
				if t2 := int(t32); !seen[t2] {
					seen[t2] = true
					if t2 != rc.c.Tuple {
						total++
					}
					gr.refCheck(rc, t2)
				}
			}
		}
		return total, 1
	}
	limit := gr.cfg.MaxScanCounterparts
	cnt := 0
	for t2 := 0; t2 < ds.NumTuples(); t2++ {
		if t2 == rc.c.Tuple {
			continue
		}
		if gr.refCheck(rc, t2) {
			total++
		}
		cnt++
		if limit > 0 && cnt >= limit {
			break
		}
	}
	return total, 1
}

// refCheck counts one counterpart (-1 for a single-tuple constraint) and
// reports whether its body held.
func (gr *grounder) refCheck(rc *relaxCtx, t2 int) bool {
	if t2 == rc.c.Tuple {
		return false
	}
	tups := [2]int{rc.c.Tuple, t2}
	if rc.hr.TupleVar == 1 {
		tups = [2]int{t2, rc.c.Tuple}
	}
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

// relaxedShapes are the constraint shapes the table grounding must match
// the counterpart loop on, over the attributes A, B, C, N (N numeric).
var relaxedShapes = []string{
	"t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)",                               // FD, one-attribute LHS
	"t1&t2&EQ(t1.A,t2.A)&EQ(t1.C,t2.C)&IQ(t1.B,t2.B)",                 // FD, two-attribute LHS
	"t1&t2&EQ(t1.A,t2.B)&IQ(t1.C,t2.C)",                               // asymmetric join: heads in role t2, heads on a join attribute
	"t1&t2&EQ(t1.A,t2.A)&EQ(t1.C,\"x\")&IQ(t1.B,t2.B)",                // a constant predicate
	"t1&t2&EQ(t1.A,t2.A)&LT(t1.N,t2.N)&IQ(t1.B,t2.B)",                 // a < predicate
	"t1&t2&LT(t1.N,t2.N)&IQ(t1.A,t2.A)",                               // no join: the capped scan
	"t1&EQ(t1.A,\"a0\")&IQ(t1.B,\"b1\")",                              // single-tuple DC
	"t1&t2&EQ(t1.B,t2.B)&EQ(t2.C,\"y\")&IQ(t1.A,t2.A)&LTE(t1.N,t1.N)", // same-role predicate, constant on the counterpart
	"t1&t2&EQ(t1.A,t2.A)&EQ(t1.C,t2.C)&EQ(t1.N,t2.N)&IQ(t1.B,t2.B)",   // FD, three-attribute LHS
	"t1&t2&IQ(t1.C,t2.C)&EQ(t2.B,t1.B)&EQ(t1.A,t2.A)",                 // FD written ≠ first, one join with its roles swapped
}

// randomRelaxedDB builds a relation of at most 40 tuples with Nulls and
// repeated values, noisy cells with random distinct candidate sets (some
// inert), and a few evidence cells.
func randomRelaxedDB(t *testing.T, rng *rand.Rand) *Database {
	t.Helper()
	ds := dataset.New([]string{"A", "B", "C", "N"})
	alpha := [][]string{
		{"a0", "a1", "a2", "b0", "b1", ""},
		{"b0", "b1", "b2", "a0", ""},
		{"x", "y", "z", ""},
		{"1", "2", "3", "10", ""},
	}
	n := 2 + rng.Intn(39)
	for i := 0; i < n; i++ {
		row := make([]string, 4)
		for a := range row {
			row[a] = alpha[a][rng.Intn(len(alpha[a]))]
		}
		ds.Append(row)
	}
	var cells, evidence []dataset.Cell
	var cands, evDoms [][]dataset.Value
	for tu := 0; tu < n; tu++ {
		for a := 0; a < 4; a++ {
			c := dataset.Cell{Tuple: tu, Attr: a}
			var dom []dataset.Value
			for _, s := range rng.Perm(len(alpha[a])) {
				if v := ds.Dict().Intern(alpha[a][s]); v != dataset.Null && rng.Intn(2) == 0 {
					dom = append(dom, v)
				}
			}
			switch r := rng.Intn(10); {
			case r < 4 && len(dom) > 0:
				cells, cands = append(cells, c), append(cands, dom)
			case r == 4 && ds.Get(tu, a) != dataset.Null:
				dom = append(dom[:0], ds.Get(tu, a))
				if o := ds.Dict().Intern(alpha[a][0]); o != dom[0] {
					dom = append(dom, o)
				}
				evidence, evDoms = append(evidence, c), append(evDoms, dom)
			}
		}
	}
	return &Database{
		DS:              ds,
		Domains:         pruning.NewDomains(cells, cands),
		Evidence:        evidence,
		EvidenceDomains: evDoms,
		RelaxedDCPrior:  1.5,
	}
}

// TestRelaxedTablesMatchCounterpartLoop checks the counterpart tables
// against the per-counterpart loop on random relations: every relaxed
// soft factor (variable, tying key, H bits) and PaperFactors must be equal,
// under both scan caps, with the tables shared across groundings.
func TestRelaxedTablesMatchCounterpartLoop(t *testing.T) {
	var cs []*dc.Constraint
	for i, s := range relaxedShapes {
		c := dc.MustParse(s)
		c.Name = "s" + strconv.Itoa(i)
		cs = append(cs, c)
	}
	softs := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomRelaxedDB(t, rng)
		for _, c := range cs {
			for _, p := range c.Predicates {
				if p.Right.IsConst {
					db.DS.Dict().Intern(p.Right.Const)
				}
			}
		}
		bounds, err := dc.BindAll(cs, db.DS)
		if err != nil {
			t.Fatal(err)
		}
		db.Bounds = bounds
		db.Shared = NewSharedIndex(db.DS, db.Domains)
		for ci, b := range bounds {
			prog := &Program{}
			prog.Add(&Rule{Kind: RandomVariables})
			for _, ref := range b.Refs {
				prog.Add(&Rule{Kind: RelaxedDCFactors, Name: fmt.Sprintf("%s@t%d.a%d", cs[ci].Name, ref.TupleVar+1, ref.Attr), Constraint: ci, Head: ref})
			}
			for _, limit := range []int{0, 3} {
				cfg := Config{MaxScanCounterparts: limit}
				got, err := Ground(db, prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newGrounder(db, cfg)
				ref.groundVariables()
				for _, r := range prog.Rules[1:] {
					ref.refGroundRelaxedDC(r)
				}
				name := fmt.Sprintf("seed %d, %s, cap %d", seed, relaxedShapes[ci], limit)
				compareSofts(t, name, got.Graph, ref.g)
				if got.Stats.PaperFactors != ref.out.Stats.PaperFactors {
					t.Errorf("%s: PaperFactors %d, reference %d", name, got.Stats.PaperFactors, ref.out.Stats.PaperFactors)
				}
				softs += len(ref.g.Softs)
			}
		}
	}
	if softs < 500 {
		t.Fatalf("only %d reference soft factors: the relations exercise too little", softs)
	}
}

// compareSofts requires two graphs to hold the same soft factors in the
// same order: variable, tying key and every H bit.
func compareSofts(t *testing.T, name string, got, want *factor.Graph) {
	t.Helper()
	if len(got.Softs) != len(want.Softs) {
		t.Errorf("%s: %d soft factors, reference %d", name, len(got.Softs), len(want.Softs))
		return
	}
	for i := range got.Softs {
		g, w := &got.Softs[i], &want.Softs[i]
		gk, wk := got.Weights.Key(g.Weight), want.Weights.Key(w.Weight)
		gh, wh := got.SoftH(g), want.SoftH(w)
		if g.Var != w.Var || gk != wk {
			t.Errorf("%s: soft %d is (%d %s), reference (%d %s)", name, i, g.Var, gk, w.Var, wk)
			return
		}
		for d := range gh {
			if math.Float64bits(gh[d]) != math.Float64bits(wh[d]) {
				t.Errorf("%s: soft %d h = %v, reference %v", name, i, gh, wh)
				return
			}
		}
	}
}

// TestRelaxedTablesConcurrentFill: grounders sharing one SharedIndex fill
// its counterpart tables concurrently (the shard worker pool does); every
// graph must equal a grounding over a private index. Run under -race.
func TestRelaxedTablesConcurrentFill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomRelaxedDB(t, rng)
	var cs []*dc.Constraint
	for _, s := range relaxedShapes {
		cs = append(cs, dc.MustParse(s))
	}
	for _, c := range cs {
		for _, p := range c.Predicates {
			if p.Right.IsConst {
				db.DS.Dict().Intern(p.Right.Const)
			}
		}
	}
	bounds, err := dc.BindAll(cs, db.DS)
	if err != nil {
		t.Fatal(err)
	}
	db.Bounds = bounds
	prog := &Program{}
	prog.Add(&Rule{Kind: RandomVariables})
	for ci, b := range bounds {
		for _, ref := range b.Refs {
			prog.Add(&Rule{Kind: RelaxedDCFactors, Name: fmt.Sprintf("s%d@t%d.a%d", ci, ref.TupleVar+1, ref.Attr), Constraint: ci, Head: ref})
		}
	}
	want, err := Ground(db, prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	shared := *db
	shared.Shared = NewSharedIndex(db.DS, db.Domains)
	got := make([]*Grounded, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Ground(&shared, prog, Config{})
		}()
	}
	wg.Wait()
	for i, g := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		compareSofts(t, fmt.Sprintf("grounder %d", i), g.Graph, want.Graph)
	}
}
