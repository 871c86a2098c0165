package factor

import (
	"math"
	"testing"
)

// tinyGraph builds a two-variable graph: v0 with domain {10,20}, v1 with
// domain {10,30}, a positive unary on v0=10, and an n-ary equality factor
// "not both equal" between them.
func tinyGraph() *Graph {
	g := NewGraph()
	v0 := g.AddVariable([]int32{10, 20}, false, 0)
	v1 := g.AddVariable([]int32{10, 30}, false, -1)
	w1 := g.Weights.ID("u", 1.0, false)
	g.AddUnary(v0, 0, w1, false, 1)
	wdc := g.Weights.ID("dc", 2.0, true)
	// ¬(v0 == v1): predicate v0 = v1 over slots.
	g.AddNary([]int32{v0, v1}, []Pred{{LeftSlot: 0, RightSlot: 1, Op: OpEq}}, wdc)
	return g
}

func TestWeightsTying(t *testing.T) {
	w := NewWeights()
	a := w.ID("k1", 0.5, false)
	b := w.ID("k1", 99, true) // second registration ignored
	if a != b {
		t.Errorf("same key should give same id")
	}
	if w.W[a] != 0.5 || w.Fixed[a] {
		t.Errorf("first registration should win")
	}
	c := w.ID("k2", 1, true)
	if c == a {
		t.Errorf("distinct keys should differ")
	}
	if w.Len() != 2 {
		t.Errorf("counting wrong: len=%d", w.Len())
	}
}

func TestEnergy(t *testing.T) {
	g := tinyGraph()
	g.Freeze()
	// Assignment v0=10 (idx 0), v1=10 (idx 0): unary h=+1, nary violated h=-1.
	g.Vars[0].Assign = 0
	g.Vars[1].Assign = 0
	want := 1.0*1 + 2.0*(-1)
	if e := g.Energy(); math.Abs(e-want) > 1e-12 {
		t.Errorf("Energy = %v, want %v", e, want)
	}
	// v0=20, v1=10: unary h=-1, nary satisfied h=+1.
	g.Vars[0].Assign = 1
	want = 1.0*(-1) + 2.0*1
	if e := g.Energy(); math.Abs(e-want) > 1e-12 {
		t.Errorf("Energy = %v, want %v", e, want)
	}
}

func TestLocalScores(t *testing.T) {
	g := tinyGraph()
	g.Freeze()
	g.Vars[1].Assign = 0 // v1 = 10
	buf := make([]float64, 2)
	g.LocalScores(0, buf)
	// v0=10: unary +1, nary violated −2 → −1. v0=20: unary −1, nary +2 → +1.
	if math.Abs(buf[0]-(-1)) > 1e-12 || math.Abs(buf[1]-1) > 1e-12 {
		t.Errorf("LocalScores = %v, want [-1 1]", buf)
	}
	g.Vars[1].Assign = 1 // v1 = 30: no equality possible
	g.LocalScores(0, buf)
	if math.Abs(buf[0]-3) > 1e-12 || math.Abs(buf[1]-1) > 1e-12 {
		t.Errorf("LocalScores = %v, want [3 1]", buf)
	}
}

func TestUnaryNegAndCount(t *testing.T) {
	g := NewGraph()
	v := g.AddVariable([]int32{1, 2}, false, 0)
	w := g.Weights.ID("neg", 0.5, false)
	g.AddUnary(v, 1, w, true, 3) // negated, multiplicity 3
	g.Freeze()
	buf := make([]float64, 2)
	g.LocalScores(v, buf)
	// Target idx 1 negated: h(1) = −1, h(0) = +1, times w·count = 1.5.
	if math.Abs(buf[0]-1.5) > 1e-12 || math.Abs(buf[1]-(-1.5)) > 1e-12 {
		t.Errorf("neg scores = %v", buf)
	}
}

func TestSoftFactor(t *testing.T) {
	g := NewGraph()
	v := g.AddVariable([]int32{1, 2, 3}, false, 0)
	w := g.Weights.ID("soft", 2.0, false)
	g.AddSoft(v, w, []float64{0.1, 0.7, 0.2})
	g.Freeze()
	buf := make([]float64, 3)
	g.LocalScores(v, buf)
	want := []float64{0.2, 1.4, 0.4}
	for i := range want {
		if math.Abs(buf[i]-want[i]) > 1e-12 {
			t.Errorf("soft scores = %v, want %v", buf, want)
		}
	}
	g.Vars[v].Assign = 1
	if e := g.Energy(); math.Abs(e-1.4) > 1e-12 {
		t.Errorf("soft energy = %v, want 1.4", e)
	}
}

func TestNaryConstFolding(t *testing.T) {
	g := NewGraph()
	v := g.AddVariable([]int32{5, 6}, false, 0)
	w := g.Weights.ID("dc", 1.0, true)
	// Predicate v ≠ 5 (constant right side).
	g.AddNary([]int32{v}, []Pred{{LeftSlot: 0, RightSlot: -1, RightConst: 5, Op: OpNeq}}, w)
	g.Freeze()
	buf := make([]float64, 2)
	g.LocalScores(v, buf)
	// v=5: pred false → satisfied h=+1. v=6: pred true → violated h=−1.
	if buf[0] != 1 || buf[1] != -1 {
		t.Errorf("const-pred scores = %v", buf)
	}
}

func TestCmpDelegation(t *testing.T) {
	g := NewGraph()
	v := g.AddVariable([]int32{5, 6}, false, 0)
	w := g.Weights.ID("dc", 1.0, true)
	g.AddNary([]int32{v}, []Pred{{LeftSlot: 0, RightSlot: -1, RightConst: 5, Op: OpGt}}, w)
	called := false
	g.Cmp = func(op uint8, a, b int32) bool {
		called = true
		return a > b
	}
	g.Freeze()
	buf := make([]float64, 2)
	g.LocalScores(v, buf)
	if !called {
		t.Fatal("Cmp not consulted for ordering op")
	}
	if buf[0] != 1 || buf[1] != -1 {
		t.Errorf("Gt scores = %v", buf)
	}
}

func TestEvidenceValidation(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Errorf("evidence without valid obs should panic")
		}
	}()
	g.AddVariable([]int32{1}, true, -1)
}

func TestEmptyDomainPanics(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Errorf("empty domain should panic")
		}
	}()
	g.AddVariable(nil, false, -1)
}

func TestExactMarginalsNormalization(t *testing.T) {
	g := tinyGraph()
	m, err := ExactMarginals(g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for v := range g.Vars {
		sum := 0.0
		for d := range g.Vars[v].Domain {
			p := m.Prob(int32(v), d)
			if p < 0 || p > 1 {
				t.Errorf("P out of range: %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("marginal of var %d sums to %v", v, sum)
		}
	}
	// The n-ary factor disfavors equal assignments; with the unary pull
	// toward v0=10, v1 should prefer 30 over 10.
	if m.Prob(1, 1) <= m.Prob(1, 0) {
		t.Errorf("v1 should prefer 30: %v", m.P[1])
	}
}

func TestExactMarginalsEvidenceClamped(t *testing.T) {
	g := NewGraph()
	ev := g.AddVariable([]int32{7, 8}, true, 1)
	q := g.AddVariable([]int32{7, 8}, false, -1)
	w := g.Weights.ID("dc", 3.0, true)
	g.AddNary([]int32{ev, q}, []Pred{{LeftSlot: 0, RightSlot: 1, Op: OpEq}}, w)
	m, err := ExactMarginals(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.Prob(ev, 1) != 1 {
		t.Errorf("evidence marginal should be a point mass")
	}
	// Query should avoid equaling the evidence value 8.
	if m.Prob(q, 0) <= m.Prob(q, 1) {
		t.Errorf("query should prefer 7: %v", m.P[q])
	}
}

func TestExactMarginalsStateGuard(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 20; i++ {
		g.AddVariable([]int32{0, 1}, false, -1)
	}
	if _, err := ExactMarginals(g, 1000); err == nil {
		t.Errorf("2^20 states should exceed the guard")
	}
}

func TestMAP(t *testing.T) {
	m := &Marginals{P: [][]float64{{0.2, 0.7, 0.1}}}
	idx, p := m.MAP(0)
	if idx != 1 || p != 0.7 {
		t.Errorf("MAP = %d/%v", idx, p)
	}
}

func TestHasNaryOnQuery(t *testing.T) {
	g := NewGraph()
	ev := g.AddVariable([]int32{1, 2}, true, 0)
	q := g.AddVariable([]int32{1, 2}, false, 0)
	w := g.Weights.ID("dc", 1, true)
	g.AddNary([]int32{ev}, []Pred{{LeftSlot: 0, RightSlot: -1, RightConst: 1, Op: OpEq}}, w)
	if g.HasNaryOnQuery() {
		t.Errorf("nary touching only evidence should not count")
	}
	g.AddNary([]int32{q}, []Pred{{LeftSlot: 0, RightSlot: -1, RightConst: 1, Op: OpEq}}, w)
	if !g.HasNaryOnQuery() {
		t.Errorf("nary on query var should be detected")
	}
}
