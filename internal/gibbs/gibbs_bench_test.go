package gibbs

import (
	"math/rand"
	"testing"

	"holoclean/internal/factor"
	"holoclean/internal/partition"
)

// BenchmarkGibbsCorrelated exercises the n-ary conditional path.
func BenchmarkGibbsCorrelated(b *testing.B) {
	g := factor.NewGraph()
	var prev int32 = -1
	for i := 0; i < 500; i++ {
		v := g.AddVariable([]int32{1, 2, 3}, false, 0)
		if prev >= 0 {
			w := g.Weights.Tie(factor.Tie{Family: 101}, 1.0, true)
			g.AddNary([]int32{prev, v}, []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpEq}}, w)
		}
		prev = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, Config{BurnIn: 5, Samples: 20, Seed: int64(i)})
	}
}

// fdWindowsGraph builds factors of the form DC-factor grounding gives a
// functional dependency: rows of a key cell K and a value cell V under
// K → V, one four-slot factor ¬(Kᵢ = Kⱼ ∧ Vᵢ ≠ Vⱼ) per pair of rows that
// share one of the overlapping windows of 8 rows (stride 4). A quarter of
// the cells have a single candidate; the rest have three, a unary per
// candidate or two, and one soft factor. Each variable sits in ≈ 11
// factors, against ≈ 30 in the giant component of the batch_skew_factors
// workload, whose sampler BenchmarkInferSkew (root package) times.
func fdWindowsGraph(rows int) *factor.Graph {
	rng := rand.New(rand.NewSource(int64(rows)))
	g := factor.NewGraph()
	wdc := g.Weights.Tie(factor.Tie{Family: 101}, 1.5, true)
	wu := g.Weights.Tie(factor.Tie{Family: 100}, 0.6, false)
	ws := g.Weights.Tie(factor.Tie{Family: 113}, 1.1, false)
	for i := 0; i < 2*rows; i++ { // K of row r is variable 2r, V is 2r+1
		size := 3
		if i%4 == 3 {
			size = 1
		}
		dom := make([]int32, size)
		for d, l := range rng.Perm(4)[:size] {
			dom[d] = int32(l)
		}
		v := g.AddVariable(dom, false, int32(rng.Intn(size)))
		if size == 1 {
			continue
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			g.AddUnary(v, int32(rng.Intn(size)), wu)
		}
		g.AddSoft(v, ws, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	preds := []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpEq}, {LeftSlot: 2, RightSlot: 3, Op: factor.OpNeq}}
	for i := 0; i < rows; i++ {
		for j := i + 1; j < min(rows, i/4*4+8); j++ {
			g.AddNary([]int32{int32(2 * i), int32(2 * j), int32(2*i + 1), int32(2*j + 1)}, preds, wdc)
		}
	}
	g.Freeze()
	return g
}

// BenchmarkGibbsFDWindows is the sampler on fdWindowsGraph, colored and
// with a warmed scratch as the pipeline runs it. allocs/op must read 0.
func BenchmarkGibbsFDWindows(b *testing.B) {
	g := fdWindowsGraph(2000)
	cfg := Config{BurnIn: 10, Samples: 50, Seed: 1, Colors: partition.ColorGraph(g), Scratch: new(Scratch)}
	Run(g, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, cfg)
	}
	updates := float64(b.N) * float64(len(g.Vars)) * float64(cfg.BurnIn+cfg.Samples)
	b.ReportMetric(updates/b.Elapsed().Seconds(), "var-updates/s")
}
