package holoclean

import (
	"bytes"
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

// BenchmarkRecleanHospital times one Reclean of a 1000-row hospital
// session at Workers 1 under the default options, after a delta of the
// shape the serve_delta_wide workload sends: the 10 rows the previous op
// appended are deleted and 10 typo'd copies of truth rows appended. Every
// appended slot changes every attribute, so no shard is reused and no
// histogram or counterpart table survives: the op nears a full pass.
func BenchmarkRecleanHospital(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 1000, Seed: 1})
	opts := DefaultOptions()
	opts.Workers = 1
	s, err := NewSession(g.Dirty.Clone(), g.Constraints, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		b.Fatal(err)
	}
	fdAttrs := []int{0, 1, 5, 6, 7, 8, 9, 13, 14, 15}
	n, truth := g.Truth.NumTuples(), g.Truth
	row := make([]string, truth.NumAttrs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s.NumTuples() > n {
			if err := s.Delete(s.NumTuples() - 1); err != nil {
				b.Fatal(err)
			}
		}
		for k := range 10 {
			src := (i*10 + k) % n
			for a := range row {
				row[a] = truth.GetString(src, a)
			}
			row[fdAttrs[k]] += "x"
			if _, err := s.Upsert(-1, row); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Reclean(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreTail times one recovery of a 1000-row hospital session
// at Workers 1 under the default options: its snapshot is decoded
// (StageSession), four log records of the serve_delta_wide shape — the 10
// rows the previous record appended (the last 10 rows, for the first) are
// deleted and 10 typo'd copies of truth rows appended — are staged as
// rounds, and the one pass they owe runs. The in-process shape of a
// recovered serve tenant; a record-by-record replay paid a pass per record
// on top of the restore's.
func BenchmarkRestoreTail(b *testing.B) {
	g := datagen.Hospital(datagen.Config{Tuples: 1000, Seed: 1})
	opts := DefaultOptions()
	opts.Workers = 1
	s, err := NewSession(g.Dirty.Clone(), g.Constraints, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	fdAttrs := []int{0, 1, 5, 6, 7, 8, 9, 13, 14, 15}
	truth := g.Truth
	row := make([]string, truth.NumAttrs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := StageSession(bytes.NewReader(snap.Bytes()), opts)
		if err != nil {
			b.Fatal(err)
		}
		for r := range 4 {
			for range 10 {
				if err := s.Delete(s.NumTuples() - 1); err != nil {
					b.Fatal(err)
				}
			}
			for k := range 10 {
				for a := range row {
					row[a] = truth.GetString((r*10+k)%truth.NumTuples(), a)
				}
				row[fdAttrs[k]] += "x"
				if _, err := s.Upsert(-1, row); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.Stage(nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Reclean(); err != nil {
			b.Fatal(err)
		}
	}
}
