package ddlog

import (
	"fmt"
	"strconv"
	"sync"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/extdict"
	"holoclean/internal/factor"
	"holoclean/internal/partition"
	"holoclean/internal/pruning"
)

// Database holds the materialized relations of Section 4.1 that rule
// grounding joins over.
type Database struct {
	// DS is the dirty dataset: the Tuple and InitValue relations.
	DS *dataset.Dataset
	// Bounds are the bound denial constraints referenced by DC rules.
	Bounds []*dc.Bound
	// Domains is the Domain relation for noisy cells (query variables),
	// produced by Algorithm 2.
	Domains *pruning.Domains
	// Evidence lists the sampled clean cells that become evidence
	// variables for learning; EvidenceDomains are their candidate sets
	// (each must contain the observed value).
	Evidence        []dataset.Cell
	EvidenceDomains [][]dataset.Value
	// Features materializes HasFeature(t,a,f) lazily: the feature
	// identifiers of one cell. May be nil when no feature rule exists.
	Features func(c dataset.Cell) []string
	// SoftFeatures materializes real-valued features: per cell and
	// candidate-label vector, zero or more (weight key, h vector) pairs.
	// HoloClean uses one per cell carrying co-occurrence probabilities
	// with the weight tied per attribute. May be nil.
	SoftFeatures func(c dataset.Cell, dom []int32) []SoftFeature
	// DictPrior is the initial (learnable) reliability weight w(k) of
	// dictionary match factors.
	DictPrior float64
	// RelaxedDCPrior is the initial (learnable) weight of relaxed
	// denial-constraint features (Section 5.2) — the prior belief that
	// constraint violations indicate errors.
	RelaxedDCPrior float64
	// Matches is the Matched(t,a,d,k) relation.
	Matches []extdict.Match
	// GroupIndex is the dense constraint → tuple → group-id (-1 = none)
	// view of the Algorithm 3 tuple groups, built once per run with
	// BuildGroupIndex and shared read-only by every shard grounder. Nil
	// disables partitioning even for rules that request it.
	GroupIndex [][]int32
	// Shared supplies the dataset-wide indexes grounding joins through,
	// shared across the per-shard grounders of the sharded pipeline. With
	// nil, Ground builds a private one over DS and Domains.
	Shared *SharedIndex
	// Interner, when non-nil, is the canonical tying-key store shared by
	// every graph grounded from this database (all shards of a run, and a
	// session's successive recleans). With it, grounding allocates each
	// distinct key string at most once per interner lifetime; the
	// per-factor key path in the hot loops never allocates at all.
	Interner *factor.KeyInterner
	// Scope, when non-nil, restricts DC-factor grounding to one shard:
	// pairs that reach a noisy tuple outside the shard are skipped (see
	// Scope). Nil grounds every pair (monolithic behavior).
	Scope *Scope
}

// Config tunes grounding.
type Config struct {
	// MaxScanCounterparts caps the counterpart tuples considered per cell
	// when a DC rule has no equality predicate to index on (0 =
	// unlimited). The cap is an approximation documented in DESIGN.md.
	MaxScanCounterparts int
	// FactorCells, when non-nil, restricts the per-cell factor rules
	// (features, minimality, matches, relaxed DCs) to cells it accepts.
	// Variables are still created for every cell, so domain-aware checks
	// (e.g. the weak-evidence discounts) see the full model. The sharded
	// pipeline grounds its learning graph with an evidence-only filter:
	// query cells become factorless domain stubs, and the evidence cells
	// carry exactly the factors they carry in a monolithic grounding.
	FactorCells func(c dataset.Cell) bool
	// Arena, when non-nil, supplies the grounder's scratch memory so
	// repeated groundings (per-shard, per-reclean) reuse backing arrays.
	// The returned Grounded borrows the arena's cell→variable map; see
	// Arena for the release contract.
	Arena *Arena
}

// wantFactors reports whether per-cell factor rules should ground factors
// anchored at cell c.
func (cfg *Config) wantFactors(c dataset.Cell) bool {
	return cfg.FactorCells == nil || cfg.FactorCells(c)
}

// inert reports whether v is a query variable inference cannot move: with a
// single candidate its posterior is 1 whatever its factors say (a softmax
// over one score; a Gibbs draw from one label), so the per-cell factor rules
// ground nothing for it, and the discounts that ask whether a sibling could
// be the repair instead treat it as unrepairable. The variable itself stays
// — ids, Cells, VarOf, DC-factor scopes and the emitted marginal are those
// of a grounding that scored it. Evidence variables are never inert: their
// factors are what learning fits.
func (gr *grounder) inert(v int32) bool {
	vr := &gr.g.Vars[v]
	return !vr.Evidence && len(vr.Domain) < 2
}

// Stats describes the grounded model. PaperFactors counts groundings the
// way Example 5 does — one factor per value combination of the involved
// random variables — while the compact in-memory representation stores
// one predicate factor per tuple pair and aggregates identical unary
// factors with multiplicities.
type Stats struct {
	Variables    int
	QueryVars    int
	EvidenceVars int
	PaperFactors int64
}

// SoftFeature is one real-valued feature of a cell: h values per
// candidate with a tied weight key. Init is the weight's starting value;
// learning adjusts it when evidence exists, but on workloads where error
// detection flags entire conflict groups (e.g. Flights) evidence is
// scarce and the prior carries the signal.
type SoftFeature struct {
	Key  string
	H    []float64
	Init float64
}

// CellVars is a dense cell → variable-id map: one slot per (tuple,
// attribute) pair of the dataset. It replaces the map[dataset.Cell]int32
// the grounder's per-pair loops used to probe, turning every lookup into
// one multiply-add and two array reads. Slots are validated by an epoch
// mark rather than cleared, so resetting a pooled instance between
// shard groundings is O(1) — a per-shard memset of a tuples×attrs array
// would make grounding cost O(dataset) per shard regardless of shard
// size.
type CellVars struct {
	attrs int
	ids   []int32
	mark  []int32
	epoch int32
}

// reset resizes to tuples×attrs and invalidates every slot by bumping
// the epoch, reusing the backing arrays when their capacity suffices
// (the arena-pooling path).
func (cv *CellVars) reset(tuples, attrs int) {
	n := tuples * attrs
	cv.attrs = attrs
	if cap(cv.ids) >= n {
		cv.ids = cv.ids[:n]
		cv.mark = cv.mark[:n]
	} else {
		cv.ids = make([]int32, n)
		cv.mark = make([]int32, n)
		cv.epoch = 0
	}
	cv.epoch++
	if cv.epoch == 0 { // wrapped: stale marks may alias epoch 0
		clear(cv.mark)
		cv.epoch = 1
	}
}

// Get returns the variable id of cell c, if one exists.
func (cv *CellVars) Get(c dataset.Cell) (int32, bool) {
	i := c.Tuple*cv.attrs + c.Attr
	if cv.mark[i] != cv.epoch {
		return -1, false
	}
	return cv.ids[i], true
}

func (cv *CellVars) set(c dataset.Cell, v int32) {
	i := c.Tuple*cv.attrs + c.Attr
	cv.ids[i] = v
	cv.mark[i] = cv.epoch
}

// Grounded is the result of grounding a program: the factor graph plus
// the cell↔variable correspondence.
type Grounded struct {
	Graph *factor.Graph
	// Cells maps variable id → cell.
	Cells []dataset.Cell
	// VarOf maps cell → variable id (dense; see CellVars).
	VarOf *CellVars
	Stats Stats
}

// Arena is the reusable per-grounding scratch memory: the dense cell→var
// map, label/key build buffers, the relaxed-DC candidate counters, and an
// epoch-marked tuple set. The sharded pipeline pools arenas across its
// worker goroutines and across Session recleans (AcquireArena /
// ReleaseArena), so a steady stream of shard groundings reuses the same
// few backing arrays. A Grounded produced with an arena borrows the
// arena's CellVars: release the arena only after the grounded graph's
// VarOf is no longer needed.
type Arena struct {
	cellVars  CellVars
	labelBuf  []int32
	keyBuf    []byte
	counts    []int32
	seenMark  []int32
	seenEpoch int32
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// AcquireArena returns a pooled grounding arena, possibly warm.
func AcquireArena() *Arena { return arenaPool.Get().(*Arena) }

// ReleaseArena returns an arena to the pool. The caller must be done with
// every Grounded that borrowed it.
func ReleaseArena(a *Arena) { arenaPool.Put(a) }

// seen reports and records whether tuple t was already seen in the
// current epoch. Epoch bumping makes clearing O(1); the mark array is
// sized to the dataset once and reused.
func (a *Arena) seen(t int) bool {
	if a.seenMark[t] == a.seenEpoch {
		return true
	}
	a.seenMark[t] = a.seenEpoch
	return false
}

// nextSeen starts a fresh seen-set epoch for a dataset of n tuples.
// Marks are cleared to 0 and epoch 0 is never used, so a stale slot can
// only collide with a live epoch after a full wrap cycle — which passes
// through 0 and re-clears the array first. (Clearing to any reachable
// epoch value, like -1, would make stale slots falsely "seen" once the
// epoch counter reached it.)
func (a *Arena) nextSeen(n int) {
	if len(a.seenMark) < n {
		a.seenMark = make([]int32, n)
		a.seenEpoch = 0
	}
	a.seenEpoch++
	if a.seenEpoch == 0 { // wrapped
		clear(a.seenMark)
		a.seenEpoch = 1
	}
}

type grounder struct {
	db      *Database
	cfg     Config
	g       *factor.Graph
	out     *Grounded
	ar      *Arena
	shared  *SharedIndex              // db.Shared, or a private index when the database carries none
	initIdx []map[dataset.Value][]int // attribute → shared.Init(attr), cached past the shared lock; nil = not fetched
	nb      naryBuild                 // foldFactor's reusable output
}

// Ground evaluates every rule of the program against the database and
// returns the factor graph. When cfg.Arena is non-nil the grounder draws
// its scratch structures from it (see Arena).
func Ground(db *Database, prog *Program, cfg Config) (*Grounded, error) {
	ar := cfg.Arena
	if ar == nil {
		ar = new(Arena)
	}
	ar.cellVars.reset(db.DS.NumTuples(), db.DS.NumAttrs())
	ar.nextSeen(db.DS.NumTuples())
	gr := &grounder{
		db:      db,
		cfg:     cfg,
		g:       factor.NewGraph(),
		ar:      ar,
		shared:  db.Shared,
		initIdx: make([]map[dataset.Value][]int, db.DS.NumAttrs()),
	}
	if gr.shared == nil {
		gr.shared = NewSharedIndex(db.DS, db.Domains)
	}
	gr.g.Weights.Interner = db.Interner
	gr.out = &Grounded{Graph: gr.g, VarOf: &ar.cellVars}
	dict := db.DS.Dict()
	gr.g.Cmp = func(op uint8, a, b int32) bool {
		return dc.Compare(dc.Op(op), dict.String(dataset.Value(a)), dict.String(dataset.Value(b)))
	}

	// The random-variable rule must ground first; factor rules reference
	// the variables it creates.
	hasRV := false
	for _, r := range prog.Rules {
		if r.Kind == RandomVariables {
			gr.groundVariables()
			hasRV = true
			break
		}
	}
	if !hasRV && len(prog.Rules) > 0 {
		return nil, fmt.Errorf("ddlog: program has factor rules but no random-variable rule")
	}
	for _, r := range prog.Rules {
		switch r.Kind {
		case RandomVariables:
			// already grounded
		case FeatureFactors:
			gr.groundFeatures()
		case MatchedFactors:
			gr.groundMatches()
		case MinimalityFactors:
			gr.groundMinimality(r.FixedWeight)
		case DCFactors:
			if err := gr.groundDC(r); err != nil {
				return nil, err
			}
		case RelaxedDCFactors:
			if err := gr.groundRelaxedDC(r); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("ddlog: unknown rule kind %d", r.Kind)
		}
	}
	gr.out.Stats.Variables = len(gr.g.Vars)
	return gr.out, nil
}

// groundVariables creates one query variable per noisy cell and one
// evidence variable per sampled clean cell. Labels are staged in the
// arena's reusable buffer; AddVariable copies them into the graph's flat
// domain arena.
func (gr *grounder) groundVariables() {
	db := gr.db
	for i, c := range db.Domains.Cells {
		cands := db.Domains.Candidates[i]
		if len(cands) == 0 {
			continue // nothing to infer; cell keeps its value
		}
		labels := gr.ar.labelBuf[:0]
		obs := int32(-1)
		init := db.DS.Get(c.Tuple, c.Attr)
		for j, v := range cands {
			labels = append(labels, int32(v))
			if v == init && init != dataset.Null {
				obs = int32(j)
			}
		}
		gr.ar.labelBuf = labels
		v := gr.g.AddVariable(labels, false, obs)
		gr.out.VarOf.set(c, v)
		gr.out.Cells = append(gr.out.Cells, c)
		gr.out.Stats.QueryVars++
	}
	for i, c := range db.Evidence {
		if _, dup := gr.out.VarOf.Get(c); dup {
			continue // a cell cannot be both noisy and evidence
		}
		cands := db.EvidenceDomains[i]
		obsVal := db.DS.Get(c.Tuple, c.Attr)
		labels := gr.ar.labelBuf[:0]
		obs := int32(-1)
		for j, v := range cands {
			labels = append(labels, int32(v))
			if v == obsVal {
				obs = int32(j)
			}
		}
		gr.ar.labelBuf = labels
		if obs < 0 {
			continue // observed value pruned away; unusable as evidence
		}
		v := gr.g.AddVariable(labels, true, obs)
		gr.out.VarOf.set(c, v)
		gr.out.Cells = append(gr.out.Cells, c)
		gr.out.Stats.EvidenceVars++
	}
}

// groundFeatures emits Value?(t,a,d) :- HasFeature(t,a,f) with weights
// tied by (attribute, candidate value, feature), plus the real-valued
// soft features (co-occurrence probabilities) with attribute-tied weights.
func (gr *grounder) groundFeatures() {
	if gr.db.Features == nil && gr.db.SoftFeatures == nil {
		return
	}
	for vi, c := range gr.out.Cells {
		v := int32(vi)
		if !gr.cfg.wantFactors(c) || gr.inert(v) {
			continue
		}
		dom := gr.g.Vars[v].Domain
		if gr.db.Features != nil {
			for _, f := range gr.db.Features(c) {
				for d, label := range dom {
					// The key is staged in the arena buffer and looked up
					// with IDBytes: the per-factor path allocates no key
					// string once the key is known to the weight store
					// (or, with a shared interner, to any prior grounding).
					key := gr.ar.keyBuf[:0]
					key = append(key, "ft|"...)
					key = strconv.AppendInt(key, int64(c.Attr), 10)
					key = append(key, '|')
					key = strconv.AppendInt(key, int64(label), 10)
					key = append(key, '|')
					key = append(key, f...)
					gr.ar.keyBuf = key
					wid := gr.g.Weights.IDBytes(key, 0, false)
					gr.g.AddUnary(v, int32(d), wid, false, 1)
					gr.out.Stats.PaperFactors++
				}
			}
		}
		if gr.db.SoftFeatures != nil {
			for _, sf := range gr.db.SoftFeatures(c, dom) {
				wid := gr.g.Weights.ID(sf.Key, sf.Init, false)
				gr.g.AddSoft(v, wid, sf.H)
				gr.out.Stats.PaperFactors++
			}
		}
	}
}

// groundMatches emits Value?(t,a,d) :- Matched(t,a,d,k) with one
// reliability weight per dictionary. Matches conditioned on a cell that
// is itself a repairable query variable get a separate, weaker weight:
// the lookup key may be the error (a swapped zip retrieves the wrong
// city), so such suggestions must not carry the full dictionary prior.
func (gr *grounder) groundMatches() {
	for _, m := range gr.db.Matches {
		v, ok := gr.out.VarOf.Get(m.Cell)
		if !ok || !gr.cfg.wantFactors(m.Cell) || gr.inert(v) {
			continue
		}
		label, ok := gr.db.DS.Dict().Lookup(m.Value)
		if !ok {
			continue
		}
		key := gr.ar.keyBuf[:0]
		key = append(key, "dict|"...)
		key = append(key, m.Dict...)
		prior := gr.db.DictPrior
		for _, cc := range m.CondCells {
			if jv := gr.queryVarOf(cc); jv >= 0 && !gr.inert(jv) {
				key = append(key, "|weak"...)
				prior /= 2
				break
			}
		}
		gr.ar.keyBuf = key
		dom := gr.g.Vars[v].Domain
		for d, l := range dom {
			if l == int32(label) {
				wid := gr.g.Weights.IDBytes(key, prior, false)
				gr.g.AddUnary(v, int32(d), wid, false, 1)
				gr.out.Stats.PaperFactors++
				break
			}
		}
	}
}

// groundMinimality emits the positive prior on keeping the initial value
// for every query variable whose initial value survived pruning.
func (gr *grounder) groundMinimality(weight float64) {
	wid := gr.g.Weights.ID("prior|minimality", weight, true)
	for vi, c := range gr.out.Cells {
		v := int32(vi)
		vr := &gr.g.Vars[v]
		if !gr.cfg.wantFactors(c) || vr.Evidence || vr.Obs < 0 || gr.inert(v) {
			continue
		}
		gr.g.AddUnary(v, vr.Obs, wid, false, 1)
		gr.out.Stats.PaperFactors++
	}
}

// queryVarOf returns the query variable of a cell, or -1 when the cell is
// clean or evidence (treated as a constant during DC grounding).
func (gr *grounder) queryVarOf(c dataset.Cell) int32 {
	if v, ok := gr.out.VarOf.Get(c); ok && !gr.g.Vars[v].Evidence {
		return v
	}
	return -1
}

// candidateLabels returns the labels cell c can take: its query-variable
// domain, or the singleton initial value.
func (gr *grounder) candidateLabels(c dataset.Cell) []int32 {
	if v := gr.queryVarOf(c); v >= 0 {
		return gr.g.Vars[v].Domain
	}
	init := gr.db.DS.Get(c.Tuple, c.Attr)
	if init == dataset.Null {
		return nil
	}
	return []int32{int32(init)}
}

// BuildGroupIndex densifies Algorithm 3 tuple groups into one
// constraint-indexed tuple → group-id table (-1 = no group). The sharded
// pipeline builds it once per run (compile.Prepare) so the K shard
// grounders share it instead of each allocating constraint × tuples
// arrays.
func BuildGroupIndex(numConstraints, numTuples int, groups []partition.Group) [][]int32 {
	idx := make([][]int32, numConstraints)
	for gi, g := range groups {
		m := idx[g.Constraint]
		if m == nil {
			m = make([]int32, numTuples)
			for i := range m {
				m[i] = -1
			}
			idx[g.Constraint] = m
		}
		for _, t := range g.Tuples {
			m[t] = int32(gi)
		}
	}
	// Constraints with no groups share one read-only all-(-1) row rather
	// than each allocating numTuples of identical sentinel.
	var empty []int32
	for ci := range idx {
		if idx[ci] == nil {
			if empty == nil {
				empty = make([]int32, numTuples)
				for i := range empty {
					empty[i] = -1
				}
			}
			idx[ci] = empty
		}
	}
	return idx
}

// sameGroup reports whether t1 and t2 share an Algorithm 3 group for
// constraint ci.
func (gr *grounder) sameGroup(ci, t1, t2 int) bool {
	m := gr.db.GroupIndex[ci]
	return m[t1] >= 0 && m[t1] == m[t2]
}
