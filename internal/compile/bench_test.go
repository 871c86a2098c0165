package compile

import (
	"testing"

	"holoclean/internal/datagen"
)

// BenchmarkCooccurFeatures times the co-occurrence featurizer over every
// noisy cell of a 2000-row hospital relation and its pruned domain: the
// frequency prior and both families' h vectors, as grounding requests them.
func BenchmarkCooccurFeatures(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 2000, Seed: 1})
	prep, _ := prepare(b, g.Dirty, g.Constraints, defaultOptions())
	doms := make([][]int32, len(prep.Domains.Cells))
	for i, cands := range prep.Domains.Candidates {
		for _, v := range cands {
			doms[i] = append(doms[i], int32(v))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range prep.Domains.Cells {
			prep.cooccur.features(c, doms[j])
		}
	}
}
