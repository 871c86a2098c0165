package learn

import (
	"math"
	"math/rand"
	"testing"

	"holoclean/internal/factor"
	"holoclean/internal/gibbs"
)

// TestLearnSeparableUnary: evidence variables whose observed value always
// coincides with a feature's target. SGD must drive that feature's weight
// positive and the marginal of a query variable with the same feature
// toward the target.
func TestLearnSeparableUnary(t *testing.T) {
	g := factor.NewGraph()
	w := g.Weights.ID("feat", 0, false)
	for i := 0; i < 50; i++ {
		ev := g.AddVariable([]int32{1, 2}, true, 0)
		g.AddUnary(ev, 0, w, false, 1)
	}
	q := g.AddVariable([]int32{1, 2}, false, -1)
	g.AddUnary(q, 0, w, false, 1)

	nll := Learn(g, Config{Epochs: 20, LearningRate: 0.2, L2: 0, Seed: 1})
	if g.Weights.W[w] <= 0.5 {
		t.Errorf("separable feature weight = %v, want clearly positive", g.Weights.W[w])
	}
	if nll > 0.4 {
		t.Errorf("final NLL = %v, want small", nll)
	}
	m := gibbs.Exact(g)
	if m.Prob(q, 0) < 0.7 {
		t.Errorf("query marginal P(target) = %v, want > 0.7", m.Prob(q, 0))
	}
}

// TestLearnAntiCorrelated: evidence never takes the feature's target;
// the weight must go negative.
func TestLearnAntiCorrelated(t *testing.T) {
	g := factor.NewGraph()
	w := g.Weights.ID("feat", 0, false)
	for i := 0; i < 50; i++ {
		ev := g.AddVariable([]int32{1, 2}, true, 1) // observed idx 1
		g.AddUnary(ev, 0, w, false, 1)              // feature fires on idx 0
	}
	Learn(g, Config{Epochs: 20, LearningRate: 0.2, L2: 0, Seed: 1})
	if g.Weights.W[w] >= -0.5 {
		t.Errorf("anti-correlated weight = %v, want clearly negative", g.Weights.W[w])
	}
}

// TestLearnSoftRecoversSignal: a soft feature whose h ranks the observed
// value highest should earn a positive weight.
func TestLearnSoftRecoversSignal(t *testing.T) {
	g := factor.NewGraph()
	w := g.Weights.ID("soft", 0, false)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 80; i++ {
		obs := int32(rng.Intn(2))
		ev := g.AddVariable([]int32{1, 2}, true, obs)
		h := []float64{0.1, 0.1}
		h[obs] = 0.9 // statistic agrees with the observation
		g.AddSoft(ev, w, h)
	}
	Learn(g, Config{Epochs: 20, LearningRate: 0.2, L2: 0, Seed: 1})
	if g.Weights.W[w] <= 0.5 {
		t.Errorf("agreeing soft feature weight = %v, want positive", g.Weights.W[w])
	}
}

// TestLearnFixedWeightsUntouched: prior weights must not move.
func TestLearnFixedWeightsUntouched(t *testing.T) {
	g := factor.NewGraph()
	wf := g.Weights.ID("prior", 1.5, true)
	wl := g.Weights.ID("learn", 0, false)
	for i := 0; i < 20; i++ {
		ev := g.AddVariable([]int32{1, 2}, true, 0)
		g.AddUnary(ev, 0, wf, false, 1)
		g.AddUnary(ev, 0, wl, false, 1)
	}
	Learn(g, Config{Epochs: 10, LearningRate: 0.2, L2: 0, Seed: 1})
	if g.Weights.W[wf] != 1.5 {
		t.Errorf("fixed weight moved to %v", g.Weights.W[wf])
	}
}

// TestLearnNaryPseudoLikelihood: an n-ary "disagreement" factor between
// evidence pairs that always disagree should learn a positive weight
// (h=+1 observed when satisfied).
func TestLearnNaryPseudoLikelihood(t *testing.T) {
	g := factor.NewGraph()
	w := g.Weights.ID("dc", 0, false)
	for i := 0; i < 40; i++ {
		a := g.AddVariable([]int32{1, 2}, true, int32(i%2))
		b := g.AddVariable([]int32{1, 2}, true, int32((i+1)%2))
		g.AddNary([]int32{a, b}, []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpEq}}, w)
	}
	Learn(g, Config{Epochs: 15, LearningRate: 0.1, L2: 0, Seed: 3})
	if g.Weights.W[w] <= 0.2 {
		t.Errorf("constraint weight = %v, want positive (evidence always satisfies)", g.Weights.W[w])
	}
}

func TestLearnNoEvidenceNoop(t *testing.T) {
	g := factor.NewGraph()
	w := g.Weights.ID("feat", 0.3, false)
	q := g.AddVariable([]int32{1, 2}, false, 0)
	g.AddUnary(q, 0, w, false, 1)
	nll := Learn(g, Config{Epochs: 5, LearningRate: 0.1, Seed: 1})
	if nll != 0 {
		t.Errorf("no-evidence NLL = %v, want 0", nll)
	}
	if g.Weights.W[w] != 0.3 {
		t.Errorf("weights must not move without evidence")
	}
}

func TestLearnL2Shrinks(t *testing.T) {
	// With aggressive L2 and an uninformative feature (target hit half
	// the time), the weight should stay near zero.
	g := factor.NewGraph()
	w := g.Weights.ID("feat", 0, false)
	for i := 0; i < 40; i++ {
		ev := g.AddVariable([]int32{1, 2}, true, int32(i%2))
		g.AddUnary(ev, 0, w, false, 1)
	}
	Learn(g, Config{Epochs: 20, LearningRate: 0.2, L2: 0.5, Seed: 1})
	if math.Abs(g.Weights.W[w]) > 0.3 {
		t.Errorf("uninformative weight = %v, want ≈ 0", g.Weights.W[w])
	}
}

// TestLearnNLLDecreases: learning should not increase the loss on a
// stable problem.
func TestLearnNLLDecreases(t *testing.T) {
	build := func() *factor.Graph {
		g := factor.NewGraph()
		w1 := g.Weights.ID("f1", 0, false)
		w2 := g.Weights.ID("f2", 0, false)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 100; i++ {
			obs := int32(rng.Intn(2))
			ev := g.AddVariable([]int32{1, 2}, true, obs)
			if obs == 0 {
				g.AddUnary(ev, 0, w1, false, 1)
			} else {
				g.AddUnary(ev, 1, w2, false, 1)
			}
		}
		return g
	}
	early := Learn(build(), Config{Epochs: 1, LearningRate: 0.1, Seed: 4})
	late := Learn(build(), Config{Epochs: 25, LearningRate: 0.1, Seed: 4})
	if late >= early {
		t.Errorf("NLL did not decrease: epoch1=%v epoch25=%v", early, late)
	}
}

// TestLearnAdaGrad: adaptive steps must still recover a separable signal
// and leave fixed weights untouched.
func TestLearnAdaGrad(t *testing.T) {
	g := factor.NewGraph()
	w := g.Weights.ID("feat", 0, false)
	wf := g.Weights.ID("prior", 1.0, true)
	for i := 0; i < 60; i++ {
		ev := g.AddVariable([]int32{1, 2}, true, 0)
		g.AddUnary(ev, 0, w, false, 1)
		g.AddUnary(ev, 0, wf, false, 1)
	}
	nll := Learn(g, Config{Epochs: 25, LearningRate: 0.5, Seed: 1, AdaGrad: true})
	if g.Weights.W[w] <= 0.3 {
		t.Errorf("AdaGrad weight = %v, want positive", g.Weights.W[w])
	}
	if g.Weights.W[wf] != 1.0 {
		t.Errorf("fixed weight moved under AdaGrad")
	}
	if nll > 0.5 {
		t.Errorf("AdaGrad NLL = %v", nll)
	}
}

// TestLearnDegenerateEvidenceKeepsWeightsFinite: an evidence variable whose
// every candidate scores -Inf — here a hard constraint (fixed weight +Inf)
// violated whatever it takes — has no softmax; Learn must treat its
// conditional as uniform, like the sampler and the closed form, instead of
// writing NaN into every tied weight the variable touches.
func TestLearnDegenerateEvidenceKeepsWeightsFinite(t *testing.T) {
	g := factor.NewGraph()
	feat := g.Weights.ID("feat", 0, false)
	soft := g.Weights.ID("soft", 0, false)
	hard := g.Weights.ID("hard", math.Inf(1), true)
	for i := 0; i < 10; i++ {
		ev := g.AddVariable([]int32{1, 2}, true, int32(i%2))
		g.AddUnary(ev, 0, feat, false, 1)
		g.AddSoft(ev, soft, []float64{0.9, 0.1})
	}
	// Variable 0 ≠ 9 always holds: the factor is violated, at weight +Inf,
	// for both candidates.
	g.AddNary([]int32{0}, []factor.Pred{{LeftSlot: 0, RightSlot: -1, RightConst: 9, Op: factor.OpNeq}}, hard)
	nll := Learn(g, Config{Epochs: 4, LearningRate: 0.1, Seed: 1})
	if math.IsNaN(nll) || math.IsInf(nll, 0) {
		t.Errorf("NLL = %v, want finite", nll)
	}
	for id, w := range g.Weights.W {
		if !g.Weights.Fixed[id] && (math.IsNaN(w) || math.IsInf(w, 0)) {
			t.Errorf("weight %q = %v after a degenerate evidence variable, want finite", g.Weights.Keys[id], w)
		}
	}
}
