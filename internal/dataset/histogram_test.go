package dataset

import (
	"math/rand"
	"slices"
	"testing"
)

// TestHistogramMatchesCounts: on random relations with nulls and keys of
// one to three attributes, every tuple sits in the block of its key (none
// when a key value is null), Find locates each block by its key and no
// other, and a block's Rows, NonNull and Count equal a recount of the
// tuples with that key.
func TestHistogramMatchesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		ds := New([]string{"A", "B", "C", "D"})
		vocab := 1 + rng.Intn(4)
		for n := rng.Intn(30); n > 0; n-- {
			row := make([]string, 4)
			for a := range row {
				if rng.Intn(5) > 0 {
					row[a] = string(rune('a' + rng.Intn(vocab)))
				}
			}
			ds.Append(row)
		}
		perm := rng.Perm(4)
		key, attr := perm[:1+rng.Intn(3)], perm[3]
		h := NewHistogram(ds, key, attr)
		keyOf := func(tu int) []Value {
			k := make([]Value, len(key))
			for i, a := range key {
				k[i] = ds.Get(tu, a)
			}
			return k
		}
		blocks := 0
		for tu := 0; tu < ds.NumTuples(); tu++ {
			k := keyOf(tu)
			if slices.Contains(k, Null) {
				if h.Block(tu) != -1 || h.Find(k) != -1 {
					t.Fatalf("trial %d: tuple %d with a null key is in block %d (Find %d)", trial, tu, h.Block(tu), h.Find(k))
				}
				continue
			}
			b := h.Block(tu)
			if b < 0 || h.Find(k) != b {
				t.Fatalf("trial %d: tuple %d is in block %d, Find of its key gives %d", trial, tu, b, h.Find(k))
			}
			var rows, nonNull int32
			count := make(map[Value]int32)
			for u := 0; u < ds.NumTuples(); u++ {
				if slices.Equal(keyOf(u), k) {
					rows++
					if v := ds.Get(u, attr); v != Null {
						nonNull++
						count[v]++
					}
				}
			}
			if h.Rows(b) != rows || h.NonNull(b) != nonNull {
				t.Fatalf("trial %d: block %d has %d rows, %d non-null; recount %d, %d", trial, b, h.Rows(b), h.NonNull(b), rows, nonNull)
			}
			for v := Null; int(v) < ds.Dict().Size(); v++ {
				if h.Count(b, v) != count[v] {
					t.Fatalf("trial %d: block %d counts %d of value %d, recount %d", trial, b, h.Count(b, v), v, count[v])
				}
			}
			blocks = max(blocks, b+1)
		}
		if h.Len() != blocks {
			t.Fatalf("trial %d: %d blocks, tuples reach %d", trial, h.Len(), blocks)
		}
		if h.Rows(-1) != 0 || h.NonNull(-1) != 0 || h.Count(-1, 1) != 0 {
			t.Fatalf("trial %d: block -1 is not empty", trial)
		}
	}
}
