package ddlog_test

import (
	"testing"

	"holoclean/internal/ddlog"
	"holoclean/internal/factor"
)

// TestTieWarmZeroAllocs pins the per-factor tying mechanism: once a tie is
// registered, looking its weight up — the call the grounding hot loops
// make per factor — performs zero allocations.
func TestTieWarmZeroAllocs(t *testing.T) {
	w := factor.NewWeights()
	tie := factor.Tie{Family: ddlog.TieFeature, A: 3, B: 42, C: 7, D: 19}
	want := w.Tie(tie, 0, false)
	allocs := testing.AllocsPerRun(200, func() {
		if got := w.Tie(tie, 0, false); got != want {
			t.Fatalf("Tie = %d, want %d", got, want)
		}
		if got, ok := w.Lookup(tie); !ok || got != want {
			t.Fatalf("Lookup = %d, %v, want %d", got, ok, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm tie lookup allocated %v objects per call, want 0", allocs)
	}
}
