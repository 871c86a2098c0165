package stats_test

import (
	"runtime"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/errordetect"
	"holoclean/internal/stats"
)

// BenchmarkCollectHospital times what a full cleaning pass collects: the
// raw statistics of a 2000-row hospital relation and its clean-cell
// statistics under the real violation-detection mask, over one encoding.
func BenchmarkCollectHospital(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 2000, Seed: 1})
	det, err := errordetect.Run(g.Dirty, &errordetect.Violations{Constraints: g.Constraints})
	if err != nil {
		b.Fatal(err)
	}
	skip := func(t, a int) bool { return det.IsNoisy(dataset.Cell{Tuple: t, Attr: a}) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols := stats.Encode(g.Dirty)
		cols.Collect(runtime.GOMAXPROCS(0))
		cols.CollectMasked(skip, runtime.GOMAXPROCS(0))
	}
}
