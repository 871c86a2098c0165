package ddlog

import (
	"slices"
	"sync"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/pruning"
)

// SharedIndex caches the dataset-wide indexes grounding consults — the
// per-attribute initial-value index, the per-attribute candidate-label
// buckets used to join denial constraints, and the counterpart tables of
// relaxed denial constraints. A single SharedIndex is built from the
// global domains and shared read-mostly across the per-shard grounders of
// the sharded pipeline, so the O(|D|) index builds happen once per
// attribute, and a counterpart join once per context, instead of once per
// shard. All methods are safe for concurrent use.
type SharedIndex struct {
	ds      *dataset.Dataset
	domains *pruning.Domains

	mu    sync.RWMutex
	init  map[int]map[dataset.Value][]int
	cand  map[int]map[int32][]int
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
	return &SharedIndex{
		ds:      ds,
		domains: domains,
		init:    make(map[int]map[dataset.Value][]int),
		cand:    make(map[int]map[int32][]int),
		relax:   make(map[relaxRule]*relaxTables),
	}
}

// Rebind points the index at a mutated dataset and refreshed domains,
// dropping the cached per-attribute indexes named in dirtyAttrs, and the
// counterpart tables of every constraint that references one, and keeping
// the rest. An attribute's indexes may be kept only when nothing they were
// built from changed: no tuple's initial value on the attribute, no noisy
// cell's candidate set on it, and — because appends and deletions add or
// remove bucket entries in every attribute — the tuple count. Incremental
// cleaning sessions call this once per reclean so the O(|D|) index builds
// of untouched attributes survive the delta.
func (s *SharedIndex) Rebind(ds *dataset.Dataset, domains *pruning.Domains, dirtyAttrs map[int]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ds = ds
	s.domains = domains
	for a := range dirtyAttrs {
		delete(s.init, a)
		delete(s.cand, a)
	}
	for r, rt := range s.relax {
		if slices.ContainsFunc(rt.reads, func(a int) bool { return dirtyAttrs[a] }) {
			delete(s.relax, r)
		}
	}
}

// relaxed returns the counterpart tables of the relaxation of b with head
// cell reference head, creating the empty set on first use.
func (s *SharedIndex) relaxed(b *dc.Bound, head dc.CellRef) *relaxTables {
	k := relaxRule{src: b.Src, head: head}
	s.mu.RLock()
	rt := s.relax[k]
	s.mu.RUnlock()
	if rt != nil {
		return rt
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rt = s.relax[k]; rt == nil {
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

// Init returns the initial-value index of attr: value → tuples whose cell
// (t, attr) initially holds that value. Nulls are excluded.
func (s *SharedIndex) Init(attr int) map[dataset.Value][]int {
	s.mu.RLock()
	idx := s.init[attr]
	s.mu.RUnlock()
	if idx != nil {
		return idx
	}
	idx = make(map[dataset.Value][]int)
	for t := 0; t < s.ds.NumTuples(); t++ {
		if v := s.ds.Get(t, attr); v != dataset.Null {
			idx[v] = append(idx[v], t)
		}
	}
	s.mu.Lock()
	if prev := s.init[attr]; prev != nil {
		idx = prev // another shard built it concurrently; keep one copy
	} else {
		s.init[attr] = idx
	}
	s.mu.Unlock()
	return idx
}

// Candidates returns the candidate-label buckets of attr: label → tuples
// whose cell (t, attr) can take that label. Noisy cells contribute every
// value of their global pruned domain; all other cells contribute their
// initial value. This reproduces, from the global view, exactly the
// labels grounder.candidateLabels yields on a monolithic graph, so a
// shard joining through these buckets sees the same counterpart pairs the
// monolithic grounder would.
func (s *SharedIndex) Candidates(attr int) map[int32][]int {
	s.mu.RLock()
	idx := s.cand[attr]
	s.mu.RUnlock()
	if idx != nil {
		return idx
	}
	idx = make(map[int32][]int)
	for t := 0; t < s.ds.NumTuples(); t++ {
		c := dataset.Cell{Tuple: t, Attr: attr}
		var cands []dataset.Value
		if s.domains != nil {
			cands = s.domains.Of(c)
		}
		if len(cands) > 0 {
			for _, v := range cands {
				idx[int32(v)] = append(idx[int32(v)], t)
			}
			continue
		}
		if v := s.ds.Get(t, attr); v != dataset.Null {
			idx[int32(v)] = append(idx[int32(v)], t)
		}
	}
	s.mu.Lock()
	if prev := s.cand[attr]; prev != nil {
		idx = prev
	} else {
		s.cand[attr] = idx
	}
	s.mu.Unlock()
	return idx
}

// Scope restricts denial-constraint factor grounding to one shard of the
// sharded pipeline. A pair is grounded only when every tuple that would
// contribute query variables to the factor lies inside the shard; pairs
// reaching, on a constraint-referenced attribute, a query variable of
// another shard are skipped — the cross-shard independence approximation
// of Algorithm 3, applied to the end-to-end pipeline. Tuples whose
// referenced cells are all clean (or noisy only on attributes the
// constraint never mentions) always participate: the grounder folds them
// to constants, yielding exactly the factor a monolithic grounding
// emits.
type Scope struct {
	// InShard marks the tuples whose noisy cells this shard owns.
	InShard map[int]bool
	// QueryAttrs maps each tuple owning query variables in the global
	// model (across all shards) to the set of attributes those variables
	// live on.
	QueryAttrs map[int]map[int]bool
	// Boundary, when positive, grounds the pairs admits would reject
	// instead of skipping them: the out-of-shard side's query cells fold
	// to their observed values (the grounder's clean-cell path) and the
	// factor's weight is scaled by Boundary. This is the boundary-factor
	// damping of split components — a cavity-style extension of the
	// Algorithm 3 scope cut: where the cut drops a cross-shard correlation
	// entirely, damping keeps it as a weakened pull toward the neighbor's
	// observed value. Both sub-shards of a split ground their side of each
	// boundary pair, so a coefficient of 0.5 restores roughly one full
	// factor's worth of energy per cut pair. Zero (the default) keeps the
	// exact legacy cut.
	Boundary float64
}

// admits reports whether tuple t may fill a constraint role that
// references attrs. t == -1 (single-tuple constraints) always passes.
func (sc *Scope) admits(t int, attrs []int) bool {
	if sc == nil || t < 0 || sc.InShard[t] {
		return true
	}
	qa := sc.QueryAttrs[t]
	if qa == nil {
		return true
	}
	for _, a := range attrs {
		if qa[a] {
			return false
		}
	}
	return true
}
