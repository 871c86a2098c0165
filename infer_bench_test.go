package holoclean

import (
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/ddlog"
	"holoclean/internal/gibbs"
	"holoclean/internal/partition"
)

// BenchmarkInferSkew times the sampler on the graph the batch_skew_factors
// workload sweeps: the giant conflict component of 2000 skewed rows
// (HotFrac 0.9, seed 1) grounded under DC Factors with the learned
// weights, colored and seeded as a shard run does it. Detection, learning
// and grounding run once, outside the timer; each iteration is one
// gibbs.Run on a warmed scratch, so allocs/op must read 0.
func BenchmarkInferSkew(b *testing.B) {
	gen := datagen.Skew(datagen.SkewConfig{Tuples: 2000, HotFrac: 0.9, Seed: 1})
	opts := DefaultOptions()
	opts.Variant = VariantDCFactors
	p := newPass(opts, gen.Dirty, gen.Constraints, nil)
	if err := p.compile(); err != nil {
		b.Fatal(err)
	}
	if err := p.learnWeights(); err != nil {
		b.Fatal(err)
	}
	giant := p.exec[0]
	for _, sh := range p.exec[1:] {
		if len(sh.cells) > len(giant.cells) {
			giant = sh
		}
	}
	arena := ddlog.AcquireArena()
	defer ddlog.ReleaseArena(arena)
	gr, err := ddlog.Ground(p.shardDB(giant), p.prep.Program, p.shardConfig(arena))
	if err != nil {
		b.Fatal(err)
	}
	g := gr.Graph
	if !g.HasNaryOnQuery() {
		b.Fatal("the giant skew shard has no query-side factors")
	}
	burn, samp := resolveGibbs(opts)
	cfg := gibbs.Config{
		BurnIn: burn, Samples: samp, Scratch: new(gibbs.Scratch),
		Colors:  partition.ColorGraph(g),
		VarSeed: cellVarSeeds(gr, opts.Seed, p.ds.NumAttrs()),
	}
	gibbs.Run(g, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gibbs.Run(g, cfg)
	}
	b.StopTimer()
	updates := float64(b.N) * float64(len(g.Vars)) * float64(burn+samp)
	b.ReportMetric(updates/b.Elapsed().Seconds(), "var-updates/s")
}
