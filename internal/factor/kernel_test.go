package factor_test

import (
	"math"
	"math/rand"
	"testing"

	"holoclean/internal/factor"
	"holoclean/internal/factor/factortest"
)

// TestKernelMatchesReference is the oracle of the compiled scoring kernel:
// on random frozen graphs under random assignments, LocalScores — and the
// sampler's form of it, a copy of StaticScores plus AddNaryScores over a
// dense label array — equals the candidate-by-candidate reference to the
// bit, as does NaryH against the difference the reference makes of one
// factor. Slots resolved at Freeze, context predicates evaluated once per
// visit and the ±w shortcut must not move a single rounding.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs, scored := 0, 0
	for ; graphs < 1200; graphs++ {
		g := factortest.RandomGraph(rng, 1+rng.Intn(12), graphs%3 == 0)
		cur := make([]int32, len(g.Vars))
		for round := 0; round < 3; round++ {
			factortest.RandomAssign(rng, g)
			for u := range g.Vars {
				cur[u] = g.Vars[u].Domain[g.Vars[u].Assign]
			}
			for v := int32(0); int(v) < len(g.Vars); v++ {
				n := len(g.Vars[v].Domain)
				want, got, split := make([]float64, n), make([]float64, n), make([]float64, n)
				factortest.ReferenceLocalScores(g, v, want)
				g.LocalScores(v, got)
				static := make([]float64, n)
				g.StaticScores(v, static)
				copy(split, static)
				g.AddNaryScores(v, cur, split)
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						t.Fatalf("graph %d var %d: LocalScores[%d] = %v (%#x), reference %v (%#x)",
							graphs, v, d, got[d], math.Float64bits(got[d]), want[d], math.Float64bits(want[d]))
					}
					if math.Float64bits(split[d]) != math.Float64bits(want[d]) {
						t.Fatalf("graph %d var %d: static + n-ary over cur [%d] = %v, reference %v", graphs, v, d, split[d], want[d])
					}
				}
				scored++
			}
		}
	}
	if scored < 10000 {
		t.Fatalf("only %d variables scored over %d graphs", scored, graphs)
	}
}

// TestNaryHMatchesReference: NaryH of v's k-th incident factor is what that
// factor alone contributes to the reference scores at weight 1.
func TestNaryHMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for i := 0; i < 300; i++ {
		g := factortest.RandomGraph(rng, 2+rng.Intn(8), false)
		factortest.RandomAssign(rng, g)
		// An n-ary-only twin with every weight 1, one factor at a time.
		for v := int32(0); int(v) < len(g.Vars); v++ {
			n := len(g.Vars[v].Domain)
			for k, ni := range g.IncidentNaries(v) {
				one := factor.NewGraph()
				one.Cmp = g.Cmp
				for u := range g.Vars {
					one.AddVariable(g.Vars[u].Domain, false, g.Vars[u].Assign)
				}
				f := &g.Naries[ni]
				one.AddNary(g.NaryVars(f), g.NaryPreds(f), one.Weights.ID("one", 1, true))
				one.Freeze()
				want, got := make([]float64, n), make([]float64, n)
				factortest.ReferenceLocalScores(one, v, want)
				for d := range got {
					got[d] = math.NaN() // NaryH must overwrite, not accumulate
				}
				g.NaryH(v, k, nil, got)
				// A variable in two slots of the factor is incident to it
				// twice, and the twin's scores count it once per incidence.
				m := float64(len(one.IncidentNaries(v)))
				for d := range want {
					if m*got[d] != want[d] {
						t.Fatalf("graph %d var %d factor %d: h[%d] = %v, reference %v", i, v, ni, d, got[d], want[d])
					}
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d incidences checked", checked)
	}
}
