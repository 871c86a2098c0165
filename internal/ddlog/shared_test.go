package ddlog

import (
	"math/rand"
	"slices"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/pruning"
)

// TestSharedIndexRebind pins the refresh contract: after a rebind the
// buckets reflect the rebound relation and domains, a relaxed rule's
// counterpart tables survive a rebind whose dirty set misses the
// attributes its constraint reads and are dropped otherwise, and a changed
// tuple count drops every table.
func TestSharedIndexRebind(t *testing.T) {
	ds := dataset.New([]string{"A", "B", "C"})
	ds.Append([]string{"x", "1", "p"})
	ds.Append([]string{"y", "2", "p"})
	ds.Append([]string{"x", "3", "q"})
	val := func(s string) dataset.Value { return ds.Dict().Intern(s) }
	bucket := func(b *dataset.Blocks, s string) []int32 { return b.Of(val(s)) }
	idx := NewSharedIndex(ds, nil)

	if got := bucket(idx.Init(0), "x"); !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("init bucket for x = %v, want [0 2]", got)
	}

	// Two relaxed rules: one over A and B, one over A and C.
	bind := func(src string) *dc.Bound {
		b, err := dc.MustParse(src).Bind(ds)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ab := bind("t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)")
	ac := bind("t1&t2&EQ(t1.C,t2.C)&IQ(t1.A,t2.A)")
	head := dc.CellRef{TupleVar: 0, Attr: 1}
	tables := func() (abKept, acKept bool) {
		_, abKept = idx.relax[relaxRule{src: ab.Src, head: head}]
		_, acKept = idx.relax[relaxRule{src: ac.Src, head: head}]
		return abKept, acKept
	}
	fill := func() {
		idx.relaxed(ab, head)
		idx.relaxed(ac, head)
	}
	fill()

	// Mutate attribute B of tuple 1 and rebind with only B dirty: the
	// buckets follow the new value, the A-B rule's tables go and the
	// A-C rule's stay.
	ds.SetString(1, 1, "9")
	idx.Rebind(ds, nil, map[int]bool{1: true})
	if got := bucket(idx.Candidates(1), "9"); !slices.Equal(got, []int32{1}) {
		t.Errorf("rebuilt bucket for 9 = %v, want [1]", got)
	}
	if got := bucket(idx.Candidates(1), "2"); len(got) != 0 {
		t.Errorf("stale bucket for 2 survived the rebind: %v", got)
	}
	if abKept, acKept := tables(); abKept || !acKept {
		t.Errorf("after a B-dirty rebind: A-B tables kept = %v (want false), A-C tables kept = %v (want true)", abKept, acKept)
	}

	// Rebinding with fresh domains changes candidate buckets although no
	// attribute is dirty, and keeps every table.
	fill()
	doms := pruning.NewDomains([]dataset.Cell{{Tuple: 0, Attr: 0}}, [][]dataset.Value{{val("x"), val("y")}})
	idx.Rebind(ds, doms, nil)
	if got := bucket(idx.Candidates(0), "y"); !slices.Equal(got, []int32{0, 1}) {
		t.Errorf("candidate bucket for y = %v, want tuples 0 (candidate) and 1 (initial)", got)
	}
	if got := bucket(idx.Init(0), "y"); !slices.Equal(got, []int32{1}) {
		t.Errorf("init bucket for y = %v, want [1]: candidates are not initial values", got)
	}
	if abKept, acKept := tables(); !abKept || !acKept {
		t.Errorf("a clean rebind dropped tables: A-B kept = %v, A-C kept = %v", abKept, acKept)
	}

	// An append changes the tuple count: every table goes, whatever the
	// dirty set says.
	ds.Append([]string{"y", "4", "r"})
	idx.Rebind(ds, doms, nil)
	if abKept, acKept := tables(); abKept || acKept {
		t.Errorf("a resizing rebind kept tables: A-B kept = %v, A-C kept = %v", abKept, acKept)
	}
	if got := bucket(idx.Init(0), "y"); !slices.Equal(got, []int32{1, 3}) {
		t.Errorf("init bucket for y after the append = %v, want [1 3]", got)
	}
}

// refInit and refCandidates are the map-built buckets the CSR index
// replaced, kept as the oracle of TestBlocksMatchMapReference.
func refInit(ds *dataset.Dataset, attr int) map[dataset.Value][]int {
	idx := make(map[dataset.Value][]int)
	for t := 0; t < ds.NumTuples(); t++ {
		if v := ds.Get(t, attr); v != dataset.Null {
			idx[v] = append(idx[v], t)
		}
	}
	return idx
}

func refCandidates(ds *dataset.Dataset, domains *pruning.Domains, attr int) map[dataset.Value][]int {
	idx := make(map[dataset.Value][]int)
	for t := 0; t < ds.NumTuples(); t++ {
		c := dataset.Cell{Tuple: t, Attr: attr}
		var cands []dataset.Value
		if domains != nil {
			cands = domains.Of(c)
		}
		if len(cands) > 0 {
			for _, v := range cands {
				idx[v] = append(idx[v], t)
			}
			continue
		}
		if v := ds.Get(t, attr); v != dataset.Null {
			idx[v] = append(idx[v], t)
		}
	}
	return idx
}

// TestBlocksMatchMapReference: the shared index's CSR buckets hold, block
// for block in label order and tuple for tuple, what the map-built
// reference holds, over random relations with nulls, random
// append/swap-delete/update histories and noisy cells whose domains are
// empty, single-candidate or multi-candidate; a label no tuple carries has
// an empty bucket.
func TestBlocksMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const attrs = 3
	for trial := 0; trial < 40; trial++ {
		ds := dataset.New([]string{"A", "B", "C"})
		vocab := 1 + rng.Intn(6)
		row := func() []string {
			r := make([]string, attrs)
			for a := range r {
				if rng.Intn(5) > 0 { // one cell in five is null
					r[a] = string(rune('a' + rng.Intn(vocab)))
				}
			}
			return r
		}
		for n := rng.Intn(12); n > 0; n-- {
			ds.Append(row())
		}
		idx := NewSharedIndex(ds, nil)
		for step := 0; step < 8; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || ds.NumTuples() == 0:
				ds.Append(row())
			case op == 1:
				ds.DeleteSwap(rng.Intn(ds.NumTuples()))
			default:
				ds.SetString(rng.Intn(ds.NumTuples()), rng.Intn(attrs), row()[0])
			}
			var domains *pruning.Domains
			if rng.Intn(4) > 0 {
				var cells []dataset.Cell
				var cands [][]dataset.Value
				for tu := 0; tu < ds.NumTuples(); tu++ {
					for a := 0; a < attrs; a++ {
						if rng.Intn(3) > 0 {
							continue
						}
						var dom []dataset.Value // empty, one or several candidates
						for k := rng.Intn(4); k > 0; k-- {
							dom = append(dom, dataset.Value(1+rng.Intn(vocab+1)))
						}
						slices.Sort(dom)
						cells = append(cells, dataset.Cell{Tuple: tu, Attr: a})
						cands = append(cands, slices.Compact(dom))
					}
				}
				domains = pruning.NewDomains(cells, cands)
			}
			idx.Rebind(ds, domains, nil)
			for a := 0; a < attrs; a++ {
				requireSameBlocks(t, "Init", idx.Init(a), refInit(ds, a))
				requireSameBlocks(t, "Candidates", idx.Candidates(a), refCandidates(ds, domains, a))
			}
		}
	}
}

func requireSameBlocks(t *testing.T, what string, got *dataset.Blocks, want map[dataset.Value][]int) {
	t.Helper()
	labels := make([]dataset.Value, 0, len(want))
	for v := range want {
		labels = append(labels, v)
	}
	slices.Sort(labels)
	if got.Len() != len(labels) {
		t.Fatalf("%s: %d blocks, want %d", what, got.Len(), len(labels))
	}
	for i, v := range labels {
		ref := make([]int32, len(want[v]))
		for k, tu := range want[v] {
			ref[k] = int32(tu)
		}
		if !slices.Equal(got.Block(i), ref) || !slices.Equal(got.Of(v), ref) {
			t.Fatalf("%s: label %d holds block %v / Of %v, want %v", what, v, got.Block(i), got.Of(v), ref)
		}
	}
	for _, v := range []dataset.Value{dataset.Null, 99, 1 << 20} {
		if _, ok := want[v]; !ok && len(got.Of(v)) != 0 {
			t.Fatalf("%s: absent label %d holds %v", what, v, got.Of(v))
		}
	}
}
