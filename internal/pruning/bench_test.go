package pruning

import (
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/errordetect"
	"holoclean/internal/stats"
)

// BenchmarkPruneHospital times Algorithm 2 over the noisy cells violation
// detection flags in a 2000-row hospital relation, at the paper's τ.
func BenchmarkPruneHospital(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 2000, Seed: 1})
	det, err := errordetect.Run(g.Dirty, &errordetect.Violations{Constraints: g.Constraints})
	if err != nil {
		b.Fatal(err)
	}
	st := stats.Collect(g.Dirty)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(g.Dirty, st, det.Noisy, Config{Tau: 0.5})
	}
}
