package gibbs

import (
	"math"
	"testing"

	"holoclean/internal/factor"
)

// TestSampleSoftmaxAllNegInf is the regression test for the degenerate
// softmax: when every candidate scores -Inf (e.g. an n-ary factor
// contributes -Inf to every label), the sampler must fall back to a
// uniform draw instead of producing NaN weights and always returning the
// last index.
func TestSampleSoftmaxAllNegInf(t *testing.T) {
	state := uint64(1)
	scores := []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		d := sampleSoftmaxState(&state, scores)
		if d < 0 || d >= len(scores) {
			t.Fatalf("draw %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != len(scores) {
		t.Errorf("degenerate softmax not uniform: only indices %v drawn", seen)
	}
}

// TestSoftmaxInPlaceAllNegInf checks the closed-form counterpart: the
// degenerate posterior is uniform, not NaN.
func TestSoftmaxInPlaceAllNegInf(t *testing.T) {
	scores := []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	factor.Softmax(scores, scores)
	for i, p := range scores {
		if math.IsNaN(p) {
			t.Fatalf("scores[%d] is NaN", i)
		}
		if math.Abs(p-0.25) > 1e-12 {
			t.Errorf("scores[%d] = %v, want 0.25", i, p)
		}
	}
}

// TestSoftmaxMixedInf pins that a single feasible candidate still takes
// all the mass when the others are -Inf.
func TestSoftmaxMixedInf(t *testing.T) {
	scores := []float64{math.Inf(-1), 2.0, math.Inf(-1)}
	factor.Softmax(scores, scores)
	if math.Abs(scores[1]-1) > 1e-12 || scores[0] != 0 || scores[2] != 0 {
		t.Errorf("mixed -Inf softmax = %v, want [0 1 0]", scores)
	}
	state := uint64(1)
	for i := 0; i < 50; i++ {
		if d := sampleSoftmaxState(&state, []float64{math.Inf(-1), 2.0, math.Inf(-1)}); d != 1 {
			t.Fatalf("sample picked infeasible index %d", d)
		}
	}
}
