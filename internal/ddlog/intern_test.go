package ddlog_test

import (
	"testing"

	"holoclean/internal/factor"
)

// TestIDBytesWarmZeroAllocs pins the per-factor tying-key mechanism: once
// a key is registered, looking it up from a byte buffer — the exact call
// the grounding hot loops make per factor — performs zero allocations.
func TestIDBytesWarmZeroAllocs(t *testing.T) {
	w := factor.NewWeights()
	w.Interner = factor.NewKeyInterner()
	key := []byte("ft|3|42|c7=19")
	want := w.IDBytes(key, 0, false)
	allocs := testing.AllocsPerRun(200, func() {
		if got := w.IDBytes(key, 0, false); got != want {
			t.Fatalf("IDBytes = %d, want %d", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm IDBytes allocated %v objects per call, want 0", allocs)
	}
}
