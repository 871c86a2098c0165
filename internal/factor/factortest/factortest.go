// Package factortest holds what the tests of factor, gibbs and learn
// compare the scoring kernel against: the candidate-by-candidate
// definition of a variable's local scores, and a generator of small random
// graphs that reaches every corner of that definition. Nothing outside
// tests imports it.
package factortest

import (
	"math"
	"math/rand"

	"holoclean/internal/factor"
)

// ReferenceLocalScores is Graph.LocalScores as it stood before the kernel
// was compiled (PR 22): every factor of v interpreted from scratch for
// every candidate — a linear scan for v's slot per factor visit, every
// predicate evaluated per candidate, labels read through Vars. Graph's
// kernel must reproduce its output bit for bit.
func ReferenceLocalScores(g *factor.Graph, v int32, buf []float64) {
	vr := &g.Vars[v]
	if len(buf) != len(vr.Domain) {
		panic("factortest: ReferenceLocalScores buffer size mismatch")
	}
	for i := range buf {
		buf[i] = 0
	}
	for _, ui := range g.IncidentUnaries(v) {
		u := &g.Unaries[ui]
		w := g.Weights.W[u.Weight] * float64(u.Count)
		for d := range buf {
			h := -1.0
			if int32(d) == u.Target {
				h = 1.0
			}
			if u.Neg {
				h = -h
			}
			buf[d] += w * h
		}
	}
	for _, si := range g.IncidentSofts(v) {
		s := &g.Softs[si]
		w := g.Weights.W[s.Weight]
		for d := range buf {
			buf[d] += w * s.H[d]
		}
	}
	for _, ni := range g.IncidentNaries(v) {
		f := &g.Naries[ni]
		w := g.Weights.W[f.Weight]
		slot := narySlot(g, f, v)
		for d := range buf {
			buf[d] += w * naryH(g, f, slot, vr.Domain[d])
		}
	}
}

// narySlot returns the slot index of variable v within factor f.
func narySlot(g *factor.Graph, f *factor.Nary, v int32) int32 {
	for s, fv := range g.NaryVars(f) {
		if fv == v {
			return int32(s)
		}
	}
	return -1
}

// label returns the label currently assigned to variable v.
func label(g *factor.Graph, v int32) int32 {
	vr := &g.Vars[v]
	return vr.Domain[vr.Assign]
}

// predHolds evaluates one predicate of factor f under the current
// assignment, with slot hypSlot of the factor hypothetically assigned
// hypLabel.
func predHolds(g *factor.Graph, f *factor.Nary, p *factor.Pred, hypSlot int32, hypLabel int32) bool {
	vars := g.NaryVars(f)
	var left int32
	if p.LeftSlot == hypSlot {
		left = hypLabel
	} else {
		left = label(g, vars[p.LeftSlot])
	}
	var right int32
	switch {
	case p.RightSlot < 0:
		right = p.RightConst
	case p.RightSlot == hypSlot:
		right = hypLabel
	default:
		right = label(g, vars[p.RightSlot])
	}
	switch p.Op {
	case factor.OpEq:
		return left == right
	case factor.OpNeq:
		return left != right
	default:
		return g.Cmp(p.Op, left, right)
	}
}

// naryH returns h of factor f (+1 satisfied / −1 violated) under the
// hypothetical slot assignment.
func naryH(g *factor.Graph, f *factor.Nary, hypSlot, hypLabel int32) float64 {
	preds := g.NaryPreds(f)
	for i := range preds {
		if !predHolds(g, f, &preds[i], hypSlot, hypLabel) {
			return 1
		}
	}
	return -1
}

// Cmp orders labels as integers; OpSim holds within distance 1.
func Cmp(op uint8, a, b int32) bool {
	switch op {
	case factor.OpLt:
		return a < b
	case factor.OpGt:
		return a > b
	case factor.OpLeq:
		return a <= b
	case factor.OpGeq:
		return a >= b
	case factor.OpSim:
		return a-b <= 1 && b-a <= 1
	}
	panic("factortest: Cmp on an equality operator")
}

// RandomGraph draws a frozen graph of nVars variables that exercises the
// whole scoring definition: domains of 1 to 5 labels from a pool of 7 (so
// predicates both hold and fail), evidence variables, query variables with
// and without an initial value, Neg and Count > 1 unaries, softs, factors
// of 1 to 6 slots — now and then with one variable in two slots — whose 1
// to 4 predicates compare two slots, a slot with itself or a slot with a
// constant under every operator, and a weight pool that includes 0 and,
// with infinite set, ±Inf.
func RandomGraph(rng *rand.Rand, nVars int, infinite bool) *factor.Graph {
	g := factor.NewGraph()
	g.Cmp = Cmp
	pool := []float64{0, rng.NormFloat64(), rng.NormFloat64(), 2 * rng.NormFloat64(), -0.5, 3}
	if infinite {
		pool = append(pool, math.Inf(1), math.Inf(-1))
	}
	wids := make([]int32, len(pool))
	for i, w := range pool {
		wids[i] = g.Weights.ID(string(rune('a'+i)), w, rng.Intn(2) == 0)
	}
	weight := func() int32 { return wids[rng.Intn(len(wids))] }
	for i := 0; i < nVars; i++ {
		dom := rng.Perm(7)[:1+rng.Intn(5)]
		labels := make([]int32, len(dom))
		for d, l := range dom {
			labels[d] = int32(l)
		}
		if rng.Intn(4) == 0 {
			g.AddVariable(labels, true, int32(rng.Intn(len(labels))))
		} else {
			g.AddVariable(labels, false, int32(rng.Intn(len(labels)+1))-1)
		}
	}
	for v := int32(0); int(v) < nVars; v++ {
		dom := len(g.Vars[v].Domain)
		for k := rng.Intn(4); k > 0; k-- {
			g.AddUnary(v, int32(rng.Intn(dom)), weight(), rng.Intn(3) == 0, int32(1+rng.Intn(3)))
		}
		if rng.Intn(2) == 0 {
			h := make([]float64, dom)
			for d := range h {
				h[d] = rng.Float64()
			}
			g.AddSoft(v, weight(), h)
		}
	}
	for k := rng.Intn(2*nVars + 1); k > 0; k-- {
		vars := make([]int32, 1+rng.Intn(6))
		for s, p := range rng.Perm(nVars) {
			if s == len(vars) {
				break
			}
			vars[s] = int32(p)
		}
		for s := nVars; s < len(vars); s++ { // fewer variables than slots: repeat some
			vars[s] = vars[rng.Intn(nVars)]
		}
		if len(vars) > 1 && rng.Intn(8) == 0 {
			vars[len(vars)-1] = vars[0]
		}
		preds := make([]factor.Pred, 1+rng.Intn(4))
		for i := range preds {
			p := &preds[i]
			p.LeftSlot = int32(rng.Intn(len(vars)))
			p.Op = uint8(rng.Intn(int(factor.OpSim) + 1))
			if rng.Intn(3) == 0 {
				p.RightSlot, p.RightConst = -1, int32(rng.Intn(7))
			} else {
				p.RightSlot = int32(rng.Intn(len(vars))) // sometimes LeftSlot itself
			}
		}
		g.AddNary(vars, preds, weight())
	}
	g.Freeze()
	return g
}

// RandomAssign moves every variable of g — evidence included, which the
// scoring definition reads like any other — to a random label.
func RandomAssign(rng *rand.Rand, g *factor.Graph) {
	for i := range g.Vars {
		g.Vars[i].Assign = int32(rng.Intn(len(g.Vars[i].Domain)))
	}
}
