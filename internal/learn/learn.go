// Package learn implements HoloClean's statistical learning step
// (Section 2.2): empirical risk minimization over log P(T) via stochastic
// gradient descent, using the evidence variables (clean cells) as labeled
// examples. For the relaxed models of Section 5.2 the variables are
// independent, the objective is a convex multiclass logistic regression,
// and SGD converges quickly; for models with denial-constraint factors the
// same update rule is the standard pseudo-likelihood gradient with the
// remaining variables held at their current assignment.
package learn

import (
	"math"
	"math/rand"

	"holoclean/internal/factor"
)

// Config controls SGD.
type Config struct {
	Epochs       int     // full passes over the evidence variables
	LearningRate float64 // initial step size; decays as 1/(1+epoch)
	L2           float64 // ridge penalty on learned weights
	Seed         int64
	// AdaGrad scales each weight's step by the inverse square root of its
	// accumulated squared gradients — the per-parameter adaptivity
	// DimmWitted-era learners used for sparse tied weights, where rare
	// features otherwise barely move.
	AdaGrad bool
}

// Learn trains the non-fixed weights of g in place and returns the final
// average per-example negative log-likelihood (for convergence tests).
//
// The gradient of the log-likelihood of evidence variable v observed at o
// with respect to a weight w is
//
//	Σ_{φ tied to w, φ ∋ v} [ h_φ(o) − E_{d∼P(·|rest)} h_φ(d) ]
//
// which for the ±1 indicator factors used by HoloClean reduces to
// 2·(1[o hits target] − P(target)). N-ary factors are handled by direct
// evaluation of h under each candidate value.
func Learn(g *factor.Graph, cfg Config) float64 {
	g.Freeze()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var evidence []int32
	maxDom := 1
	for i := range g.Vars {
		v := &g.Vars[i]
		if v.Evidence {
			v.Assign = v.Obs
			evidence = append(evidence, int32(i))
		} else if v.Obs >= 0 {
			// Query variables sit at their initial value during learning,
			// matching the relaxation of Section 5.2 where constraint
			// features are evaluated against initial values.
			v.Assign = v.Obs
		}
		if len(v.Domain) > maxDom {
			maxDom = len(v.Domain)
		}
	}
	if len(evidence) == 0 {
		return 0
	}
	scores := make([]float64, maxDom)
	probs := make([]float64, maxDom)
	hbuf := make([]float64, maxDom)
	order := make([]int32, len(evidence))
	copy(order, evidence)
	var adagrad []float64
	if cfg.AdaGrad {
		adagrad = make([]float64, g.Weights.Len())
	}

	var finalNLL float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LearningRate / (1 + float64(epoch))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var nll float64
		for _, v := range order {
			vr := &g.Vars[v]
			dom := len(vr.Domain)
			sc := scores[:dom]
			pr := probs[:dom]
			g.LocalScores(v, sc)
			factor.Softmax(sc, pr)
			o := int(vr.Obs)
			nll -= math.Log(math.Max(pr[o], 1e-300))
			applyGradient(g, v, o, pr, hbuf[:dom], lr, cfg.L2, adagrad)
		}
		finalNLL = nll / float64(len(order))
	}
	return finalNLL
}

// applyGradient performs one SGD step for evidence variable v observed at
// domain index o, given the conditional distribution pr; h is scratch of the
// same length. When adagrad is non-nil it holds the per-weight
// squared-gradient accumulators.
func applyGradient(g *factor.Graph, v int32, o int, pr, h []float64, lr, l2 float64, adagrad []float64) {
	w := g.Weights
	step := func(wid int32, grad float64) {
		grad -= l2 * w.W[wid]
		if adagrad != nil {
			adagrad[wid] += grad * grad
			w.W[wid] += lr * grad / (1e-6 + math.Sqrt(adagrad[wid]))
			return
		}
		w.W[wid] += lr * grad
	}
	for _, ui := range g.IncidentUnaries(v) {
		u := &g.Unaries[ui]
		if w.Fixed[u.Weight] {
			continue
		}
		// h(d) = ±1 indicator (sign-flipped when Neg):
		// grad = h(o) − Σ_d pr[d]·h(d) = 2·(1[o==target] − pr[target]),
		// negated for Neg heads.
		obsHit := 0.0
		if int32(o) == u.Target {
			obsHit = 1
		}
		grad := 2 * (obsHit - pr[u.Target]) * float64(u.Count)
		if u.Neg {
			grad = -grad
		}
		step(u.Weight, grad)
	}
	for _, si := range g.IncidentSofts(v) {
		s := &g.Softs[si]
		if w.Fixed[s.Weight] {
			continue
		}
		// grad = H(o) − E_{d∼pr}[H(d)]
		var hExp float64
		for d := range pr {
			hExp += pr[d] * s.H[d]
		}
		step(s.Weight, s.H[o]-hExp)
	}
	for k, ni := range g.IncidentNaries(v) {
		f := &g.Naries[ni]
		if w.Fixed[f.Weight] {
			continue
		}
		g.NaryH(v, k, nil, h)
		var hExp float64
		for d := range pr {
			hExp += pr[d] * h[d]
		}
		step(f.Weight, h[o]-hExp)
	}
}
