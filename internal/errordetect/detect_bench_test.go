package errordetect

import (
	"testing"

	"holoclean/internal/datagen"
)

// BenchmarkDetectHospital times what a full cleaning pass detects: every
// violation of the nine hospital FDs on a 2000-row relation — the one the
// batch_hospital workload cleans at seed 1 (generator seed 67, 8,293 noisy
// cells) — with its conflict hypergraph.
func BenchmarkDetectHospital(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 2000, Seed: 67})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g.Dirty, &Violations{Constraints: g.Constraints}); err != nil {
			b.Fatal(err)
		}
	}
}
