package ddlog

import (
	"slices"
	"sync"
	"sync/atomic"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/pruning"
)

// SharedIndex holds the dataset-wide indexes grounding consults — the
// per-attribute initial-value and candidate-label buckets denial
// constraints join through, and the counterpart tables of relaxed denial
// constraints. A single SharedIndex is built from the global domains and
// shared read-mostly across the per-shard grounders of the sharded
// pipeline, so an attribute's buckets are built once per pass, and a
// counterpart join once per context, instead of once per shard. All
// methods but Rebind are safe for concurrent use.
type SharedIndex struct {
	ds      *dataset.Dataset
	domains *pruning.Domains
	n       int // ds's tuple count at the last bind

	// init and cand hold one bucket index per attribute, nil until first
	// use; concurrent builders race and one CompareAndSwap winner is kept.
	init, cand []atomic.Pointer[dataset.Blocks]

	mu    sync.Mutex
	relax map[relaxRule]*relaxTables
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
	s := &SharedIndex{relax: make(map[relaxRule]*relaxTables)}
	s.Rebind(ds, domains, nil)
	return s
}

// Rebind points the index at a mutated dataset and refreshed domains. It
// drops every bucket index — they are rebuilt on first use, once per pass
// — and the counterpart tables of every constraint that references an
// attribute in dirtyAttrs, keeping the rest: a table is a function of the
// initial values on the constraint's attributes alone, so it may be kept
// when no tuple's initial value on them changed. A changed tuple count
// (appends, deletions) drops every table. Incremental cleaning sessions
// call this once per reclean, never concurrently with a grounding.
func (s *SharedIndex) Rebind(ds *dataset.Dataset, domains *pruning.Domains, dirtyAttrs map[int]bool) {
	resized := ds.NumTuples() != s.n
	s.ds, s.domains, s.n = ds, domains, ds.NumTuples()
	s.init = make([]atomic.Pointer[dataset.Blocks], ds.NumAttrs())
	s.cand = make([]atomic.Pointer[dataset.Blocks], ds.NumAttrs())
	for r, rt := range s.relax {
		if resized || slices.ContainsFunc(rt.reads, func(a int) bool { return dirtyAttrs[a] }) {
			delete(s.relax, r)
		}
	}
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
