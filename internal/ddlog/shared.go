package ddlog

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/pruning"
)

// SharedIndex holds the dataset-wide indexes grounding consults — the
// per-attribute initial-value and candidate-label buckets denial
// constraints join through, the block histograms relaxed FD-shaped
// constraints count from, and the counterpart tables of the other relaxed
// denial constraints. A single SharedIndex is built from the global
// domains and shared read-mostly across the per-shard grounders of the
// sharded pipeline, so an attribute's buckets are built once per pass, a
// histogram once per (key, attribute) and a counterpart join once per
// context, instead of once per shard. All methods but Rebind are safe for
// concurrent use.
type SharedIndex struct {
	ds      *dataset.Dataset
	domains *pruning.Domains
	n       int // ds's tuple count at the last bind

	// init and cand hold one bucket index per attribute, nil until first
	// use; concurrent builders race and one CompareAndSwap winner is kept.
	init, cand []atomic.Pointer[dataset.Blocks]

	mu    sync.Mutex
	relax map[relaxRule]*relaxTables
	hists map[string]*blockHist // by histKey
}

// blockHist is one block histogram and the attributes it counts over, its
// key attributes and the counted one: it is a function of the initial
// values on them alone.
type blockHist struct {
	reads []int
	h     *dataset.Histogram
}

// relaxRule identifies one single-head relaxation of a constraint.
type relaxRule struct {
	src  *dc.Constraint
	head dc.CellRef
}

// relaxTables holds the counterpart tables of one relaxed rule, keyed by
// context (see grounder.counterTable). reads lists the attributes the
// constraint references: the tables are a function of the initial values
// on them alone.
type relaxTables struct {
	reads []int

	mu sync.RWMutex
	m  map[string]*counterTable
}

// counterTable is the counterpart side of one relaxed-DC context: of the
// tuples the rule's join (or scan) reaches, how many it reached, how many
// passed the body predicates, and those grouped by their values on the
// counterpart role's attributes, one representative and a multiplicity
// per group. Every member of a group scores every candidate alike.
type counterTable struct {
	joined, passed int32
	groups         []counterGroup
}

type counterGroup struct {
	rep, n int32
}

// NewSharedIndex returns an empty index over the dataset and the global
// (pre-shard) noisy-cell domains. domains may be nil, in which case
// candidate buckets degrade to initial values only.
func NewSharedIndex(ds *dataset.Dataset, domains *pruning.Domains) *SharedIndex {
	s := &SharedIndex{relax: make(map[relaxRule]*relaxTables), hists: make(map[string]*blockHist)}
	s.Rebind(ds, domains, nil)
	return s
}

// Rebind points the index at a mutated dataset and refreshed domains. It
// drops every bucket index — they are rebuilt on first use, once per pass
// — and the block histograms and counterpart tables that read an
// attribute in dirtyAttrs, keeping the rest: a histogram is a function of
// the initial values on its attributes alone, a table of those on its
// constraint's attributes, so either may be kept when no tuple's initial
// value on them changed. A changed tuple count (appends, deletions) drops
// every histogram and table. Incremental cleaning sessions call this once
// per reclean, never concurrently with a grounding.
func (s *SharedIndex) Rebind(ds *dataset.Dataset, domains *pruning.Domains, dirtyAttrs map[int]bool) {
	resized := ds.NumTuples() != s.n
	s.ds, s.domains, s.n = ds, domains, ds.NumTuples()
	s.init = make([]atomic.Pointer[dataset.Blocks], ds.NumAttrs())
	s.cand = make([]atomic.Pointer[dataset.Blocks], ds.NumAttrs())
	stale := func(reads []int) bool {
		return resized || slices.ContainsFunc(reads, func(a int) bool { return dirtyAttrs[a] })
	}
	for r, rt := range s.relax {
		if stale(rt.reads) {
			delete(s.relax, r)
		}
	}
	for k, bh := range s.hists {
		if stale(bh.reads) {
			delete(s.hists, k)
		}
	}
}

// histogram returns the block histogram of attr over the key attributes
// key, building it on first use. Every relaxed rule of every constraint
// with that key and attribute counts from the one histogram.
func (s *SharedIndex) histogram(key []int, attr int) *dataset.Histogram {
	var buf [16]byte
	k := histKey(buf[:0], key, attr)
	s.mu.Lock() // once per rule per grounding, like relaxed
	defer s.mu.Unlock()
	if bh := s.hists[string(k)]; bh != nil {
		return bh.h
	}
	bh := &blockHist{reads: append(slices.Clone(key), attr), h: dataset.NewHistogram(s.ds, key, attr)}
	s.hists[string(k)] = bh
	return bh.h
}

// histKey appends the map key of the histogram of attr over key: the
// attributes in order, attr last, as uvarints: the code is prefix-free,
// so the bytes decode to one attribute list.
func histKey(dst []byte, key []int, attr int) []byte {
	for _, a := range key {
		dst = binary.AppendUvarint(dst, uint64(a))
	}
	return binary.AppendUvarint(dst, uint64(attr))
}

// relaxed returns the counterpart tables of the relaxation of b with head
// cell reference head, creating the empty set on first use.
func (s *SharedIndex) relaxed(b *dc.Bound, head dc.CellRef) *relaxTables {
	k := relaxRule{src: b.Src, head: head}
	s.mu.Lock() // once per rule per grounding: no read path worth splitting
	defer s.mu.Unlock()
	rt := s.relax[k]
	if rt == nil {
		rt = &relaxTables{reads: slices.Concat(b.RoleAttrs[0], b.RoleAttrs[1]), m: make(map[string]*counterTable)}
		s.relax[k] = rt
	}
	return rt
}

// get returns the table of context key, or nil before it is built.
func (rt *relaxTables) get(key []byte) *counterTable {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.m[string(key)]
}

// put stores tb under key unless another grounder stored the same
// context's table first, and returns the one kept. Both are built from the
// same initial values, so either serves.
func (rt *relaxTables) put(key []byte, tb *counterTable) *counterTable {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if prev := rt.m[string(key)]; prev != nil {
		return prev
	}
	rt.m[string(key)] = tb
	return tb
}

// Init returns the initial-value buckets of attr: value → tuples whose
// cell (t, attr) initially holds that value. Nulls are excluded.
func (s *SharedIndex) Init(attr int) *dataset.Blocks {
	return s.buckets(&s.init[attr], func(t int, dst []dataset.Value) []dataset.Value {
		if v := s.ds.Get(t, attr); v != dataset.Null {
			dst = append(dst, v)
		}
		return dst
	})
}

// Candidates returns the candidate-label buckets of attr: label → tuples
// whose cell (t, attr) can take that label. Noisy cells contribute every
// value of their global pruned domain; all other cells contribute their
// initial value. This reproduces, from the global view, exactly the
// labels grounder.candidateLabels yields on a monolithic graph, so a
// shard joining through these buckets sees the same counterpart pairs the
// monolithic grounder would.
func (s *SharedIndex) Candidates(attr int) *dataset.Blocks {
	return s.buckets(&s.cand[attr], func(t int, dst []dataset.Value) []dataset.Value {
		if cands := s.domainOf(dataset.Cell{Tuple: t, Attr: attr}); len(cands) > 0 {
			return append(dst, cands...)
		}
		if v := s.ds.Get(t, attr); v != dataset.Null {
			dst = append(dst, v)
		}
		return dst
	})
}

// domainOf returns cell c's candidates in the pass's domains: nil when c is
// not a noisy cell.
func (s *SharedIndex) domainOf(c dataset.Cell) []dataset.Value {
	if s.domains == nil {
		return nil
	}
	return s.domains.Of(c)
}

// buckets returns the index in slot, building it from labels on first
// use. Grounders that race on an empty slot each build one; the first
// stored is kept and returned to all.
func (s *SharedIndex) buckets(slot *atomic.Pointer[dataset.Blocks], labels func(t int, dst []dataset.Value) []dataset.Value) *dataset.Blocks {
	if b := slot.Load(); b != nil {
		return b
	}
	b := dataset.NewBlocks(s.ds.NumTuples(), labels)
	if !slot.CompareAndSwap(nil, b) {
		b = slot.Load()
	}
	return b
}
