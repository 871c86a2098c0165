package gibbs

import (
	"math/rand"
	"testing"

	"holoclean/internal/factor"
	"holoclean/internal/partition"
)

// randomGraph builds a random factor graph in which about a third of the
// variables have a single label — some of those Null-initial (Obs -1), some
// evidence — and the rest carry random unary and soft factors; correlated
// adds pairwise factors over all of them. decorate then loads every
// single-label query variable with unary and soft factors of arbitrary
// weight, drawn from a second stream so the base graph is the same either
// way.
func randomGraph(seed int64, correlated, decorate bool) *factor.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := factor.NewGraph()
	weights := make([]int32, 6)
	for i := range weights {
		weights[i] = g.Weights.ID("w"+string(rune('a'+i)), rng.NormFloat64(), i%2 == 0)
	}
	n := 20 + rng.Intn(20)
	for i := 0; i < n; i++ {
		size := 1
		if rng.Intn(3) > 0 {
			size = 2 + rng.Intn(3)
		}
		dom := make([]int32, size)
		for d, label := range rng.Perm(4)[:size] {
			dom[d] = int32(label) // four labels in all, so Eq/Neq predicates bite across variables
		}
		obs := int32(rng.Intn(size+1)) - 1
		evidence := obs >= 0 && rng.Intn(6) == 0
		g.AddVariable(dom, evidence, obs)
	}
	for v := int32(0); v < int32(n); v++ {
		size := len(g.Vars[v].Domain)
		if size < 2 {
			continue
		}
		for k := rng.Intn(4); k > 0; k-- {
			g.AddUnary(v, int32(rng.Intn(size)), weights[rng.Intn(len(weights))], rng.Intn(4) == 0, int32(1+rng.Intn(3)))
		}
		h := make([]float64, size)
		for d := range h {
			h[d] = rng.Float64()
		}
		g.AddSoft(v, weights[rng.Intn(len(weights))], h)
	}
	if correlated {
		op := []uint8{factor.OpEq, factor.OpNeq}
		for k := 0; k < 2*n; k++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			g.AddNary([]int32{a, b}, []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: op[rng.Intn(2)]}}, weights[rng.Intn(len(weights))])
		}
	}
	if decorate {
		rng := rand.New(rand.NewSource(^seed))
		for v := int32(0); v < int32(n); v++ {
			if vr := &g.Vars[v]; vr.Evidence || len(vr.Domain) != 1 {
				continue
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				w := g.Weights.ID("extra", 50*rng.NormFloat64(), false)
				g.AddUnary(v, 0, w, rng.Intn(2) == 0, int32(1+rng.Intn(5)))
			}
			g.AddSoft(v, weights[rng.Intn(len(weights))], []float64{100 * rng.NormFloat64()})
		}
	}
	g.Freeze()
	return g
}

// TestSingleLabelFactorsNeverMoveMarginals is the property the grounder
// relies on when it leaves inert variables factorless: whatever unary and
// soft factors a single-label query variable carries, every marginal of
// the graph — its own included — is bit-identical without them, in the
// closed form and under chromatic sampling at any worker count.
func TestSingleLabelFactorsNeverMoveMarginals(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, correlated := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				run := func(decorate bool) ([][]float64, int) {
					g := randomGraph(seed, correlated, decorate)
					if g.HasNaryOnQuery() != correlated {
						t.Fatalf("seed %d: correlated = %v but HasNaryOnQuery = %v", seed, correlated, !correlated)
					}
					cfg := Config{BurnIn: 3, Samples: 20, Seed: seed, IntraWorkers: workers}
					if correlated {
						cfg.Colors = partition.ColorGraph(g)
					}
					m := Run(g, cfg)
					out := make([][]float64, len(m.P))
					for v, p := range m.P {
						out[v] = append([]float64(nil), p...)
					}
					return out, g.NumFactors()
				}
				plain, plainFactors := run(false)
				loaded, loadedFactors := run(true)
				if loadedFactors <= plainFactors {
					t.Fatalf("seed %d: decoration added no factors", seed)
				}
				for v := range plain {
					for d := range plain[v] {
						if plain[v][d] != loaded[v][d] {
							t.Fatalf("seed %d correlated=%v workers=%d: marginal[%d][%d] = %v with factors on single-label variables, %v without",
								seed, correlated, workers, v, d, loaded[v][d], plain[v][d])
						}
					}
					if len(plain[v]) == 1 && plain[v][0] != 1 {
						t.Fatalf("seed %d: single-label variable %d has marginal %v, want exactly 1", seed, v, plain[v][0])
					}
				}
			}
		}
	}
}
