package gibbs

import (
	"math"
	"testing"
	"testing/quick"

	"holoclean/internal/factor"
)

// independentGraph builds query variables with only unary/soft factors.
func independentGraph() *factor.Graph {
	g := factor.NewGraph()
	v0 := g.AddVariable([]int32{1, 2}, false, 0)
	v1 := g.AddVariable([]int32{1, 2, 3}, false, -1)
	w := g.Weights.ID("w0", 1.0, false)
	g.AddUnary(v0, 0, w, false, 1)
	ws := g.Weights.ID("soft", 2.0, false)
	g.AddSoft(v1, ws, []float64{0.9, 0.1, 0.0})
	return g
}

func correlatedGraph() *factor.Graph {
	g := factor.NewGraph()
	v0 := g.AddVariable([]int32{1, 2}, false, 0)
	v1 := g.AddVariable([]int32{1, 2}, false, 0)
	w := g.Weights.ID("u", 0.8, false)
	g.AddUnary(v0, 0, w, false, 1)
	wdc := g.Weights.ID("dc", 1.5, true)
	g.AddNary([]int32{v0, v1}, []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpEq}}, wdc)
	return g
}

func TestExactMatchesClosedForm(t *testing.T) {
	g := independentGraph()
	m := Exact(g)
	// v0: scores [+1, −1] → softmax.
	want0 := math.Exp(1.0) / (math.Exp(1.0) + math.Exp(-1.0))
	if math.Abs(m.Prob(0, 0)-want0) > 1e-12 {
		t.Errorf("exact P(v0=1) = %v, want %v", m.Prob(0, 0), want0)
	}
	sum := 0.0
	for d := 0; d < 3; d++ {
		sum += m.Prob(1, d)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("v1 marginal sums to %v", sum)
	}
}

func TestExactPanicsOnCorrelated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Exact should panic on correlated graphs")
		}
	}()
	Exact(correlatedGraph())
}

func TestGibbsConvergesToEnumerationCorrelated(t *testing.T) {
	g := correlatedGraph()
	want, err := factor.ExactMarginals(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := Run(g, Config{BurnIn: 200, Samples: 8000, Seed: 7})
	for v := 0; v < 2; v++ {
		for d := range g.Vars[v].Domain {
			diff := math.Abs(m.Prob(int32(v), d) - want.Prob(int32(v), d))
			if diff > 0.03 {
				t.Errorf("var %d val %d: gibbs %v vs enumeration %v", v, d,
					m.Prob(int32(v), d), want.Prob(int32(v), d))
			}
		}
	}
}

func TestGibbsDeterministicBySeed(t *testing.T) {
	g1 := correlatedGraph()
	g2 := correlatedGraph()
	m1 := Run(g1, Config{BurnIn: 10, Samples: 100, Seed: 5})
	m2 := Run(g2, Config{BurnIn: 10, Samples: 100, Seed: 5})
	for v := 0; v < 2; v++ {
		for d := range g1.Vars[v].Domain {
			if m1.Prob(int32(v), d) != m2.Prob(int32(v), d) {
				t.Errorf("same seed gave different marginals")
			}
		}
	}
}

func TestGibbsEvidenceClamped(t *testing.T) {
	g := factor.NewGraph()
	ev := g.AddVariable([]int32{1, 2}, true, 1)
	q := g.AddVariable([]int32{1, 2}, false, 0)
	w := g.Weights.ID("dc", 2.0, true)
	g.AddNary([]int32{ev, q}, []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpEq}}, w)
	m := Run(g, Config{BurnIn: 50, Samples: 1000, Seed: 1})
	if m.Prob(ev, 1) != 1 {
		t.Errorf("evidence marginal should stay a point mass")
	}
	if m.Prob(q, 0) <= m.Prob(q, 1) {
		t.Errorf("query should avoid the evidence value: %v", m.P[q])
	}
}

// TestGibbsMarginalsSumToOne is the invariant property across random
// independent graphs.
func TestGibbsMarginalsSumToOne(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		g := factor.NewGraph()
		v := g.AddVariable([]int32{1, 2, 3, 4}, false, 0)
		w := g.Weights.ID("w", float64(wRaw%5)-2, false)
		g.AddUnary(v, int32(seed%4+3)%4, w, seed%2 == 0, 1)
		m := Run(g, Config{BurnIn: 5, Samples: 50, Seed: seed})
		sum := 0.0
		for d := 0; d < 4; d++ {
			sum += m.Prob(v, d)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGibbsInitialAssignment(t *testing.T) {
	// Query variable with Obs >= 0 must start at its observed value so a
	// single sweep with no factors keeps marginals centered there.
	g := factor.NewGraph()
	g.AddVariable([]int32{5, 6, 7}, false, 2)
	m := Run(g, Config{BurnIn: 0, Samples: 10, Seed: 1})
	sum := m.Prob(0, 0) + m.Prob(0, 1) + m.Prob(0, 2)
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("marginals sum = %v", sum)
	}
}
