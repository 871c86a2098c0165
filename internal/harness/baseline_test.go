package harness

import (
	"testing"
	"time"

	"holoclean/internal/datagen"
)

// TestBaselinesEndToEnd runs each baseline on the seeded generator
// datasets through the same entry points the Table 3 comparison uses
// and checks the evaluation is sane: scores inside [0,1], repair
// accounting consistent, and the methods actually engaging with the
// workloads they support (no silent no-op scoring a vacuous 0/0/0
// across the board).
func TestBaselinesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline end-to-end runs are slow")
	}
	cfg := datagen.Config{Tuples: 300, Seed: 1}
	datasets := []*datagen.Generated{
		datagen.Hospital(cfg),
		datagen.Flights(cfg),
		datagen.Food(cfg),
	}
	budget := time.Minute
	for _, g := range datasets {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			results := []MethodResult{
				RunHolistic(g, budget),
				RunKATARA(g, budget),
				RunSCARE(g, budget),
			}
			var engaged int
			for _, r := range results {
				if r.NA {
					if r.Method != "KATARA" || len(g.Dictionaries) != 0 {
						t.Errorf("%s reported NA on %s unexpectedly", r.Method, g.Name)
					}
					continue
				}
				if r.Err != nil {
					t.Errorf("%s failed on %s: %v", r.Method, g.Name, r.Err)
					continue
				}
				if r.TimedOut {
					t.Errorf("%s timed out on %s within %v", r.Method, g.Name, budget)
					continue
				}
				e := r.Eval
				for name, v := range map[string]float64{"precision": e.Precision, "recall": e.Recall, "F1": e.F1} {
					if v < 0 || v > 1 {
						t.Errorf("%s on %s: %s = %v out of [0,1]", r.Method, g.Name, name, v)
					}
				}
				if e.CorrectRepairs > e.Repairs {
					t.Errorf("%s on %s: %d correct of %d repairs", r.Method, g.Name, e.CorrectRepairs, e.Repairs)
				}
				if e.Errors == 0 {
					t.Errorf("%s on %s: zero injected errors — the dataset is degenerate", r.Method, g.Name)
				}
				if r.Runtime <= 0 || r.Runtime > budget {
					t.Errorf("%s on %s: runtime %v outside (0, %v]", r.Method, g.Name, r.Runtime, budget)
				}
				if e.Repairs > 0 {
					engaged++
				}
				t.Logf("%s on %s: %s (%.0fms)", r.Method, g.Name, e, float64(r.Runtime.Milliseconds()))
			}
			if engaged == 0 {
				t.Errorf("no baseline made a single repair on %s — end-to-end path inert", g.Name)
			}
		})
	}
}

// TestBaselineTimeoutsRespected pins the DNF contract for every
// baseline: an expired budget reports TimedOut with zero scores and the
// budget as runtime, exactly how Tables 3 and 4 render "did not
// terminate" entries.
func TestBaselineTimeoutsRespected(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 1})
	runs := []struct {
		name string
		run  func() MethodResult
	}{
		{"Holistic", func() MethodResult { return RunHolistic(g, time.Nanosecond) }},
		{"KATARA", func() MethodResult { return RunKATARA(g, time.Nanosecond) }},
		{"SCARE", func() MethodResult { return RunSCARE(g, time.Nanosecond) }},
	}
	for _, tc := range runs {
		r := tc.run()
		if !r.TimedOut {
			t.Errorf("%s: nanosecond budget should report DNF, got %+v", tc.name, r)
			continue
		}
		if r.Eval.F1 != 0 || r.Eval.Repairs != 0 {
			t.Errorf("%s: DNF must score zero, got %s", tc.name, r.Eval)
		}
		if r.Runtime != time.Nanosecond {
			t.Errorf("%s: DNF runtime = %v, want the budget", tc.name, r.Runtime)
		}
	}
}

// TestDetachedKeepsCodes pins the copy a baseline runs on: every cell and
// source as in the original, every value under its original code (the
// baselines break ties by code; hospital's dirty dictionary holds its
// injected errors after the clean values), and a dictionary of its own.
func TestDetachedKeepsCodes(t *testing.T) {
	cfg := datagen.Config{Tuples: 100, Seed: 1}
	for _, g := range []*datagen.Generated{datagen.Hospital(cfg), datagen.Flights(cfg)} {
		d := detached(g.Dirty)
		if d.Dict() == g.Dirty.Dict() {
			t.Fatalf("%s: the copy shares the original's dictionary", g.Name)
		}
		if d.Dict().Size() != g.Dirty.Dict().Size() {
			t.Fatalf("%s: dictionary sizes differ: copy %d, original %d", g.Name, d.Dict().Size(), g.Dirty.Dict().Size())
		}
		for tu := 0; tu < g.Dirty.NumTuples(); tu++ {
			if d.Source(tu) != g.Dirty.Source(tu) {
				t.Fatalf("%s: tuple %d: source %q, want %q", g.Name, tu, d.Source(tu), g.Dirty.Source(tu))
			}
			for a := 0; a < g.Dirty.NumAttrs(); a++ {
				if d.Get(tu, a) != g.Dirty.Get(tu, a) {
					t.Fatalf("%s: cell (%d,%d): code %d, want %d", g.Name, tu, a, d.Get(tu, a), g.Dirty.Get(tu, a))
				}
			}
		}
	}
}
