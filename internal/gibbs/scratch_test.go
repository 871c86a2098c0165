package gibbs

import (
	"math"
	"math/rand"
	"testing"

	"holoclean/internal/factor"
	"holoclean/internal/partition"
)

// chainGraph builds a correlated chain (n-ary factors between successive
// variables) so Run samples it — uncolored, one class per variable.
func chainGraph(n int) *factor.Graph {
	g := factor.NewGraph()
	var prev int32 = -1
	for i := 0; i < n; i++ {
		v := g.AddVariable([]int32{1, 2, 3}, false, 0)
		w := g.Weights.ID("u", 0.4, false)
		g.AddUnary(v, int32(i%3), w, false, 1)
		if prev >= 0 {
			dc := g.Weights.ID("dc", 1.0, true)
			g.AddNary([]int32{prev, v}, []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpNeq}}, dc)
		}
		prev = v
	}
	return g
}

// TestScratchMatchesFreshBuffers pins that supplying a Scratch changes
// nothing about the sampled marginals (TestRunNaryFreeIsExact covers the
// closed form).
func TestScratchMatchesFreshBuffers(t *testing.T) {
	base := Run(chainGraph(40), Config{BurnIn: 5, Samples: 30, Seed: 7})
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	// Run twice with the same scratch: the second run exercises the
	// warmed-arena path.
	Run(chainGraph(40), Config{BurnIn: 5, Samples: 30, Seed: 7, Scratch: sc})
	got := Run(chainGraph(40), Config{BurnIn: 5, Samples: 30, Seed: 7, Scratch: sc})
	for v := range base.P {
		for d := range base.P[v] {
			if base.P[v][d] != got.P[v][d] {
				t.Fatalf("marginal P[%d][%d] differs with scratch: %v vs %v", v, d, got.P[v][d], base.P[v][d])
			}
		}
	}
}

// TestSequentialSweepsZeroAllocs pins that once a scratch is warm, a full
// uncolored Gibbs run — sweeps, score buffers, stream state, marginal
// accumulation, and the returned Marginals — performs zero heap
// allocations. Any regression (a rebuilt buffer, an escaping closure)
// shows up as a nonzero figure here.
func TestSequentialSweepsZeroAllocs(t *testing.T) {
	g := chainGraph(30)
	sc := new(Scratch)
	cfg := Config{BurnIn: 3, Samples: 10, Seed: 3, Scratch: sc}
	Run(g, cfg) // warm the arenas
	allocs := testing.AllocsPerRun(20, func() {
		m := Run(g, cfg)
		if math.IsNaN(m.P[0][0]) {
			t.Fatal("NaN marginal")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state uncolored Run allocated %v objects per run, want 0", allocs)
	}
}

// TestColoredSweepsZeroAllocs extends the guarantee to everything the
// compiled sweep keeps in the scratch — static-score arena and views, the
// dense label array — on the colored schedule the pipeline runs, over a
// graph with single-candidate variables, unaries, softs and four-slot
// factors.
func TestColoredSweepsZeroAllocs(t *testing.T) {
	g := fdWindowsGraph(60)
	cfg := Config{BurnIn: 2, Samples: 6, Seed: 3, Colors: partition.ColorGraph(g), Scratch: new(Scratch)}
	Run(g, cfg) // warm the arenas
	allocs := testing.AllocsPerRun(20, func() {
		if m := Run(g, cfg); math.IsNaN(m.P[0][0]) {
			t.Fatal("NaN marginal")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state colored Run allocated %v objects per run, want 0", allocs)
	}
}

// TestScratchCarriesNothingAcrossRuns: whatever a scratch ran before —
// a graph of another shape, or the same frozen graph under other weights,
// which is what learning between Ground and Run and the benchmark's
// repeated Runs do — a Run on it returns the fresh-scratch result. A
// static-score arena cached across runs fails the second half.
func TestScratchCarriesNothingAcrossRuns(t *testing.T) {
	run := func(g *factor.Graph, sc *Scratch) [][]float64 {
		m := Run(g, Config{BurnIn: 3, Samples: 25, Seed: 9, Colors: partition.ColorGraph(g), Scratch: sc})
		out := make([][]float64, len(m.P))
		for v, p := range m.P {
			out[v] = append([]float64(nil), p...)
		}
		return out
	}
	same := func(what string, got, want [][]float64) {
		t.Helper()
		for v := range want {
			for d := range want[v] {
				if got[v][d] != want[v][d] {
					t.Fatalf("%s: P[%d][%d] = %v, fresh scratch %v", what, v, d, got[v][d], want[v][d])
				}
			}
		}
	}
	sc := new(Scratch)
	run(fdWindowsGraph(90), sc)
	run(chainGraph(400), sc) // more variables, fewer labels
	same("after two other shapes", run(fdWindowsGraph(40), sc), run(fdWindowsGraph(40), nil))

	g, fresh := fdWindowsGraph(40), fdWindowsGraph(40)
	before := run(g, sc)
	for _, graph := range []*factor.Graph{g, fresh} {
		graph.Weights.W[graph.Weights.ID("u", 0, false)] = -2.5
		graph.Weights.W[graph.Weights.ID("s", 0, false)] = 4
	}
	after := run(g, sc)
	same("after a weight change on the same frozen graph", after, run(fresh, nil))
	moved := false
	for v := range before {
		for d := range before[v] {
			moved = moved || before[v][d] != after[v][d]
		}
	}
	if !moved {
		t.Fatal("the weight change moved no marginal; the test would not notice a stale static arena")
	}
}

// independentVars builds n independent query variables with feature
// factors — the Section 5.2 regime — plus one evidence variable.
func independentVars(n int) *factor.Graph {
	rng := rand.New(rand.NewSource(1))
	g := factor.NewGraph()
	g.AddVariable([]int32{1, 2}, true, 1)
	for i := 0; i < n; i++ {
		v := g.AddVariable([]int32{1, 2, 3, 4}, false, int32(i%5)-1)
		w := g.Weights.ID("w", 0.8, false)
		g.AddUnary(v, int32(rng.Intn(4)), w, false, 1)
		g.AddSoft(v, g.Weights.ID("s", 1.2, false), []float64{0.4, 0.3, 0.2, rng.Float64()})
	}
	return g
}

// TestRunNaryFreeIsExact pins the rule for independent query variables:
// Run returns Exact's closed form bit for bit whatever the sampling
// budget, seed and scratch history, leaves every variable at its MAP
// label, and with a warmed scratch allocates nothing.
func TestRunNaryFreeIsExact(t *testing.T) {
	g := independentVars(60)
	want := Exact(independentVars(60))
	warm := new(Scratch)
	Run(chainGraph(90), Config{BurnIn: 2, Samples: 5, Seed: 1, Scratch: warm}) // stale counts, another shape
	for _, cfg := range []Config{
		{},
		{BurnIn: 10, Samples: 50, Seed: 1},
		{BurnIn: 0, Samples: 1, Seed: -7, IntraWorkers: 4},
		{BurnIn: 3, Samples: 20, Seed: 99, Scratch: warm},
		{BurnIn: 100, Samples: 4000, Seed: 42, Scratch: warm},
	} {
		got := Run(g, cfg)
		for v := range want.P {
			for d := range want.P[v] {
				if got.P[v][d] != want.P[v][d] {
					t.Fatalf("%+v: P[%d][%d] = %v, Exact %v", cfg, v, d, got.P[v][d], want.P[v][d])
				}
			}
			if best, _ := want.MAP(int32(v)); !g.Vars[v].Evidence && g.Vars[v].Assign != int32(best) {
				t.Fatalf("%+v: var %d assigned %d, MAP %d", cfg, v, g.Vars[v].Assign, best)
			}
		}
	}
	cfg := Config{BurnIn: 10, Samples: 50, Seed: 1, Scratch: warm}
	if allocs := testing.AllocsPerRun(20, func() { Run(g, cfg) }); allocs != 0 {
		t.Fatalf("warmed closed-form Run allocated %v objects per run, want 0", allocs)
	}
}
