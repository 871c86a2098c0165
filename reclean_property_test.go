package holoclean

import (
	"fmt"
	"math/rand"
	"testing"

	"holoclean/internal/datagen"
)

// randomScript stages one random delta on s: typo upserts (a value gets
// one character appended and one overwritten), cross-copy upserts (a value
// is copied from another tuple, the error mechanism of the generators),
// appends of rows assembled from other tuples' values, and deletes.
func randomScript(t *testing.T, s *Session, rng *rand.Rand, ops int) {
	t.Helper()
	ds, width := s.ds, len(s.Attrs())
	row := func(tup int) []string {
		out := make([]string, width)
		for a := range out {
			out[a] = ds.GetString(tup, a)
		}
		return out
	}
	for k := 0; k < ops; k++ {
		n := ds.NumTuples()
		var err error
		switch op := rng.Intn(6); {
		case op < 2: // typo
			tup, a := rng.Intn(n), rng.Intn(width)
			r := row(tup)
			b := []byte(r[a] + "x")
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			r[a] = string(b)
			_, err = s.Upsert(tup, r)
		case op < 4: // cross-copy
			tup, a := rng.Intn(n), rng.Intn(width)
			r := row(tup)
			r[a] = ds.GetString(rng.Intn(n), a)
			_, err = s.Upsert(tup, r)
		case op < 5: // append
			r := make([]string, width)
			for a := range r {
				r[a] = ds.GetString(rng.Intn(n), a)
			}
			_, err = s.Upsert(-1, r)
		default:
			err = s.Delete(rng.Intn(n))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecleanMatchesCleanUnderRandomScripts is the session contract as a
// property: on three generators under DC Feats, with and without the
// outlier detectors, every Reclean after a random script of typo and
// cross-copy upserts, appends and deletes is byte-identical to a full
// Clean of the mutated relation with the session's weights. Without the
// join hop of invalidation (propagateJoins) it fails on every generator.
func TestRecleanMatchesCleanUnderRandomScripts(t *testing.T) {
	cfg := datagen.Config{Tuples: 300, Seed: 5}
	for _, g := range []*datagen.Generated{datagen.Hospital(cfg), datagen.Food(cfg), datagen.Physicians(cfg)} {
		for _, outliers := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/outliers=%v", g.Name, outliers), func(t *testing.T) {
				opts := DefaultOptions()
				opts.OutlierDetection = outliers
				s, err := NewSession(g.Dirty, g.Constraints, opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Clean(); err != nil {
					t.Fatal(err)
				}
				refOpts := opts
				refOpts.InitialWeights = s.Weights()
				rng := rand.New(rand.NewSource(4))
				reused := 0
				for step := 0; step < 8; step++ {
					randomScript(t, s, rng, 3+rng.Intn(6))
					incr, err := s.Reclean()
					if err != nil {
						t.Fatal(err)
					}
					ref, err := New(refOpts).Clean(s.Dataset(), g.Constraints)
					if err != nil {
						t.Fatal(err)
					}
					requireIdenticalResults(t, fmt.Sprintf("step %d", step), incr, ref)
					reused += incr.Stats.ShardsReused
				}
				if reused == 0 {
					t.Error("no Reclean carried a shard forward: the scripts never exercised invalidation")
				}
			})
		}
	}
}
