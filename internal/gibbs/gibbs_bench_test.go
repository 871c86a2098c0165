package gibbs

import (
	"testing"

	"holoclean/internal/factor"
)

// BenchmarkGibbsCorrelated exercises the n-ary conditional path.
func BenchmarkGibbsCorrelated(b *testing.B) {
	g := factor.NewGraph()
	var prev int32 = -1
	for i := 0; i < 500; i++ {
		v := g.AddVariable([]int32{1, 2, 3}, false, 0)
		if prev >= 0 {
			w := g.Weights.ID("dc", 1.0, true)
			g.AddNary([]int32{prev, v}, []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpEq}}, w)
		}
		prev = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, Config{BurnIn: 5, Samples: 20, Seed: int64(i)})
	}
}
