package holoclean

import (
	"testing"

	"holoclean/internal/datagen"
)

// BenchmarkCleanHospital times one whole Clean of 2000 hospital rows (seed
// 1) under DC Feats at τ 0.5 with the default Workers: the in-process shape
// of the batch_hospital workload, so a change to any stage shows here
// before the end-to-end ruler runs.
func BenchmarkCleanHospital(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 2000, Seed: 1})
	opts := DefaultOptions()
	opts.Tau = 0.5
	opts.Variant = VariantDCFeats
	cl := New(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Clean(g.Dirty, g.Constraints); err != nil {
			b.Fatal(err)
		}
	}
}
