package gibbs

import (
	"math"
	"math/rand"
	"testing"

	"holoclean/internal/factor"
	"holoclean/internal/factor/factortest"
	"holoclean/internal/partition"
)

// referenceSoftmaxDraw is sampleSoftmaxState as it stood before the sweep
// was compiled: both passes take the exponentials.
func referenceSoftmaxDraw(state *uint64, scores []float64) int {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		return splitIntn(state, len(scores))
	}
	var z float64
	for _, s := range scores {
		z += math.Exp(s - maxS)
	}
	u := splitFloat(state) * z
	var acc float64
	for i, s := range scores {
		acc += math.Exp(s - maxS)
		if u < acc {
			return i
		}
	}
	return len(scores) - 1
}

// referenceRun is the sampler as it stood before the sweep was compiled,
// sequential schedule only: every variable of every class is visited every
// sweep — single-candidate ones included — and scored from scratch by the
// candidate-by-candidate reference; labels are read through Vars.
func referenceRun(g *factor.Graph, cfg Config) [][]float64 {
	counts := make([][]float64, len(g.Vars))
	pstate := make([]uint64, len(g.Vars))
	var query []int32
	for i := range g.Vars {
		v := &g.Vars[i]
		counts[i] = make([]float64, len(v.Domain))
		if v.Evidence {
			v.Assign = v.Obs
			continue
		}
		query = append(query, int32(i))
	}
	for _, v := range query {
		pstate[v] = uint64(cfg.Seed + int64(v)*1_000_003)
		vr := &g.Vars[v]
		if vr.Obs >= 0 {
			vr.Assign = vr.Obs
		} else {
			vr.Assign = int32(splitIntn(&pstate[v], len(vr.Domain)))
		}
	}
	classes := cfg.Colors
	if len(classes) == 0 {
		classes = [][]int32{query}
	}
	for sweep := 0; sweep < cfg.BurnIn+cfg.Samples; sweep++ {
		for _, class := range classes {
			for _, v := range class {
				vr := &g.Vars[v]
				scores := make([]float64, len(vr.Domain))
				factortest.ReferenceLocalScores(g, v, scores)
				d := referenceSoftmaxDraw(&pstate[v], scores)
				vr.Assign = int32(d)
				if sweep >= cfg.BurnIn {
					counts[v][d]++
				}
			}
		}
	}
	for _, v := range query {
		for d := range counts[v] {
			counts[v][d] /= float64(cfg.Samples)
		}
	}
	for i := range g.Vars {
		if g.Vars[i].Evidence {
			counts[i][g.Vars[i].Obs] = 1
		}
	}
	return counts
}

// TestRunMatchesReferenceSweep is the oracle of the compiled sweep as a
// whole: on random correlated graphs — every factor shape, evidence
// members, single-candidate variables, ±Inf weights on a third of them —
// Run's marginals and final assignment equal the uncompiled sampler's bit
// for bit, uncolored and on the chromatic schedule at IntraWorkers 1 and 4
// (the latter on graphs large enough for classes to be split across
// goroutines, which is what -race watches), with fresh and reused scratch.
func TestRunMatchesReferenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := new(Scratch)
	sampled, parallel := 0, 0
	for i := 0; sampled < 150; i++ {
		n := 2 + rng.Intn(14)
		if i%5 == 0 {
			n = 120 + rng.Intn(80)
		}
		seed := rng.Int63()
		build := func() *factor.Graph {
			return factortest.RandomGraph(rand.New(rand.NewSource(seed)), n, i%3 == 0)
		}
		if !build().HasNaryOnQuery() {
			continue
		}
		sampled++
		base := Config{BurnIn: 2, Samples: 7, Seed: int64(i)}
		for _, mode := range []struct {
			name    string
			colored bool
			workers int
			scratch *Scratch
		}{
			{"uncolored", false, 1, nil},
			{"colored/1", true, 1, sc},
			{"colored/4", true, 4, nil},
			{"colored/4/scratch", true, 4, sc},
		} {
			ref, got := build(), build()
			cfg := base
			if mode.colored {
				cfg.Colors = partition.ColorGraph(got)
				for _, class := range cfg.Colors {
					if mode.workers > 1 && len(class) >= 2*mode.workers {
						parallel++
						break
					}
				}
			}
			want := referenceRun(ref, cfg)
			cfg.IntraWorkers, cfg.Scratch = mode.workers, mode.scratch
			m := Run(got, cfg)
			for v := range want {
				for d := range want[v] {
					if math.Float64bits(m.P[v][d]) != math.Float64bits(want[v][d]) {
						t.Fatalf("graph %d (%d vars) %s: P[%d][%d] = %v, reference sweep %v", i, n, mode.name, v, d, m.P[v][d], want[v][d])
					}
				}
				if got.Vars[v].Assign != ref.Vars[v].Assign {
					t.Fatalf("graph %d (%d vars) %s: var %d ends at %d, reference sweep at %d", i, n, mode.name, v, got.Vars[v].Assign, ref.Vars[v].Assign)
				}
			}
		}
	}
	if parallel < 20 {
		t.Fatalf("only %d runs split a class across goroutines", parallel)
	}
}

// TestRunRejectsEmptySampleBudget: a sampled graph with Samples <= 0 used
// to return 0/0 = NaN marginals; it is a contract violation and panics.
// The closed form needs no budget and keeps accepting the zero Config.
func TestRunRejectsEmptySampleBudget(t *testing.T) {
	for _, samples := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run with Samples = %d on a correlated graph did not panic", samples)
				}
			}()
			m := Run(chainGraph(4), Config{BurnIn: 1, Samples: samples})
			t.Errorf("Samples = %d returned marginals %v", samples, m.P)
		}()
	}
	if m := Run(independentVars(3), Config{}); math.IsNaN(m.P[1][0]) {
		t.Error("closed form with the zero Config returned NaN")
	}
}
