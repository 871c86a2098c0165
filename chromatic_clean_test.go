package holoclean

import (
	"fmt"
	"math"
	"testing"

	"holoclean/internal/datagen"
)

// skewOptions is the base configuration of the giant-component tests:
// correlation factors (so the hot region grounds as one conflict
// component) over the skewed workload.
func skewOptions() Options {
	opts := DefaultOptions()
	opts.Variant = VariantDCFactors
	return opts
}

// TestCleanIntraWorkersEquivalent extends the pipeline's determinism
// contract to intra-shard parallelism: on a dataset whose hot region is
// one giant conflict component, every
// (Workers, IntraWorkers) combination produces byte-identical repairs
// and marginals to the fully sequential run.
func TestCleanIntraWorkersEquivalent(t *testing.T) {
	// 70% of 900 tuples in the hot region: color classes large enough
	// that IntraWorkers actually fans out.
	gen := func() *datagen.Generated {
		return datagen.Skew(datagen.SkewConfig{Tuples: 900, Seed: 5, HotFrac: 0.7})
	}
	run := func(workers, intra int) *Result {
		g := gen()
		opts := skewOptions()
		opts.Workers = workers
		opts.IntraWorkers = intra
		res, err := New(opts).Clean(g.Dirty, g.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1, 1)
	if base.Stats.LargestComponentFrac < 0.5 {
		t.Fatalf("LargestComponentFrac = %v, want a dominant component (fixture broken?)",
			base.Stats.LargestComponentFrac)
	}
	for _, grid := range [][2]int{{1, 2}, {1, 4}, {4, 1}, {4, 4}, {2, 3}} {
		got := run(grid[0], grid[1])
		requireIdenticalResults(t, fmt.Sprintf("Workers=%d IntraWorkers=%d", grid[0], grid[1]), got, base)
	}
}

// TestCleanSplitDampingCloseMarginals is the boundary-damping property
// test: splitting the giant component with damped boundary factors must
// stay close to the exact unsplit inference — same MAP repair for the
// overwhelming majority of cells, and top-marginal probabilities within
// a loose tolerance (Gibbs noise plus the cut's bias). The tolerance is
// deliberately stated: damping is an approximation, not an equivalence.
func TestCleanSplitDampingCloseMarginals(t *testing.T) {
	gen := func() *datagen.Generated {
		return datagen.Skew(datagen.SkewConfig{Tuples: 500, Seed: 9, HotFrac: 0.6})
	}
	run := func(maxCells int) *Result {
		g := gen()
		opts := skewOptions()
		opts.Workers = 4
		opts.MaxComponentCells = maxCells
		opts.GibbsSamples = 200
		res, err := New(opts).Clean(g.Dirty, g.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact := run(0)
	split := run(200)
	if split.Stats.SplitShards < 2 {
		t.Fatalf("SplitShards = %d, want the giant component split into several sub-shards", split.Stats.SplitShards)
	}
	if exact.Stats.SplitShards != 0 {
		t.Fatalf("unsplit run reported %d split shards", exact.Stats.SplitShards)
	}
	if len(split.Marginals) != len(exact.Marginals) {
		t.Fatalf("marginal counts differ: split %d, exact %d", len(split.Marginals), len(exact.Marginals))
	}
	cells, mapAgree := 0, 0
	sumDiff := 0.0
	for c, ed := range exact.Marginals {
		sd := split.Marginals[c]
		if len(sd) == 0 {
			t.Fatalf("cell %v lost its marginal under splitting", c)
		}
		cells++
		if sd[0].Value == ed[0].Value {
			mapAgree++
		}
		sumDiff += math.Abs(sd[0].P - ed[0].P)
	}
	if frac := float64(mapAgree) / float64(cells); frac < 0.9 {
		t.Errorf("MAP agreement between split and unsplit inference = %.3f, want >= 0.9", frac)
	}
	if avg := sumDiff / float64(cells); avg > 0.15 {
		t.Errorf("mean |Δp| of top marginals = %.3f, want <= 0.15", avg)
	}
}

// TestSessionRecleanWithSplitting: the incremental session contract
// survives component splitting — a delta away from the giant component
// reuses its sub-shards (by their distinct fingerprints) and the reclean
// stays byte-identical to a from-scratch clean of the mutated dataset.
func TestSessionRecleanWithSplitting(t *testing.T) {
	g := datagen.Skew(datagen.SkewConfig{Tuples: 500, Seed: 11, HotFrac: 0.6})
	opts := skewOptions()
	opts.Workers = 2
	opts.MaxComponentCells = 200
	s, err := NewSession(g.Dirty, g.Constraints, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Clean()
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.SplitShards < 2 {
		t.Fatalf("SplitShards = %d, want the giant component split", first.Stats.SplitShards)
	}

	// Mutate one isolated filler pair (its keys join nothing in the hot
	// region), so the giant component's sub-shards stay clean.
	ds := s.Dataset()
	tup := ds.NumTuples() - 1
	row := make([]string, ds.NumAttrs())
	for a := range row {
		row[a] = ds.GetString(tup, a)
	}
	row[2] = row[2] + "zz"
	if _, err := s.Upsert(tup, row); err != nil {
		t.Fatal(err)
	}

	incr, err := s.Reclean()
	if err != nil {
		t.Fatal(err)
	}
	refOpts := opts
	refOpts.InitialWeights = s.Weights()
	ref, err := New(refOpts).Clean(s.Dataset(), g.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "reclean with split components", incr, ref)
	if incr.Stats.ShardsReused == 0 {
		t.Error("ShardsReused = 0, want the untouched split sub-shards carried forward")
	}
}
